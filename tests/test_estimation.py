"""Generalized Cramer-Rao machinery: scores, bounds, q-CR product."""

import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from qfisher import estimation
from qfisher.core import (
    Axis,
    GridDensity,
    NonFiniteError,
    Tolerances,
    density_from_callable,
    gradient,
    normalize,
)
from qfisher.estimation import (
    EstimatorSpec,
    MODEL_REGISTRY,
    ParametricModel,
    SingularScoreError,
    crm_bound_general,
    crm_bound_quadratic,
    crm_bound_scalar,
    escort_pair_model,
    fisher_matrix_g,
    gaussian_location_model,
    mc_error_moment,
    qcr_product,
    qgaussian_location_model,
    sample_mean_estimator,
    score_g,
)
from qfisher.info_measures import escort, escort_inverse, i_fisher, m_q, phi_fisher, recenter
from qfisher.perturb import fourier_bump, perturbed_density
from qfisher.qgaussian import (DiffusionParams, QGaussianParams, barenblatt, barenblatt_mass,
                               grid_density, moment_alpha)

TOL_EQ = Tolerances(inequality_slack=1e-6)


def gaussian_meanvar_model(count=4001):
    """theta = (mu, v): N(mu, v) with exact Fisher matrix diag(1/v, 1/(2v^2))."""
    ax = Axis(-14.0, 14.0, count)

    def dens(coords, theta):
        mu, v = theta
        return np.exp(-(coords[0] - mu) ** 2 / (2 * v)) / np.sqrt(2 * np.pi * v)

    return ParametricModel(dens, dens, 2, ax, name="gaussian-meanvar")


class TestScore:
    def test_classical_gaussian_score(self):
        m = gaussian_location_model(n=1)
        psi = score_g(m, [0.3])[0]
        x = m.axis.nodes()
        assert np.allclose(psi, x - 0.3, atol=1e-8)

    def test_locally_constant_model_zero_score(self):
        ax = Axis(-10.0, 10.0, 2001)

        def dens(coords, theta):
            return np.exp(-coords[0] ** 2 / 2) / np.sqrt(2 * np.pi)

        m = ParametricModel(dens, dens, 1, ax)
        assert np.allclose(score_g(m, [0.0])[0], 0.0)

    def test_singular_score_detected(self):
        # f moves mass where g vanishes identically
        ax = Axis(-10.0, 10.0, 2001)

        def dens_f(coords, theta):
            return np.exp(-(coords[0] - theta[0]) ** 2 / 2) / np.sqrt(2 * np.pi)

        def dens_g(coords, theta):
            x = coords[0]
            return np.where(np.abs(x) < 1.0, 0.5, 0.0)

        m = ParametricModel(dens_f, dens_g, 1, ax)
        with pytest.raises(SingularScoreError):
            score_g(m, [0.0])

    def test_escort_pair_score_identity(self):
        # location pair: psi = -(q / M_q[g]) g^(q-1) grad g / g, interior nodes
        q = 2.0
        m = escort_pair_model(q, 2.0, 1.0, count=8001)
        psi = score_g(m, [0.0])[0]
        gv = m.g_values([0.0])
        gd = GridDensity(m.axis, gv)
        grad = gradient(gd)
        mq = m_q(gd, q)
        interior = gv > 1e-3 * gv.max()
        rhs = -(q / mq) * gv[interior] ** (q - 1.0) * grad[interior] / gv[interior]
        assert np.allclose(psi[interior], rhs, atol=1e-8)

    def test_nan_score_fails_zero_mean(self):
        # f holds unit mass at theta = 0 and is NaN off it, so every centered
        # difference, and so E_g[psi], is NaN
        def g(coords, theta):
            return np.exp(-coords[0] ** 2 / 2.0) / np.sqrt(2.0 * np.pi)

        def f(coords, theta):
            return g(coords, theta) if theta[0] == 0.0 else np.full_like(coords[0], np.nan)

        m = ParametricModel(f, g, 1, Axis(-8.0, 8.0, 401))
        m.check_normalized([np.array([0.0])])
        with pytest.raises(ArithmeticError, match=r"zero-mean: E_g\[psi\] = nan"):
            score_g(m, [0.0])

    def test_normalization_check(self):
        m = gaussian_location_model(n=1)
        m.check_normalized([np.array([0.0]), np.array([0.5])])
        bad = ParametricModel(lambda c, t: np.exp(-c[0] ** 2), lambda c, t: np.exp(-c[0] ** 2),
                              1, Axis(-10, 10, 1001))
        with pytest.raises(ValueError, match="mass"):
            bad.check_normalized([np.array([0.0])])

    def test_nan_mass_fails_the_normalization_check(self):
        def nan(coords, theta):
            return np.full_like(coords[0], np.nan)

        m = ParametricModel(nan, nan, 1, Axis(-8.0, 8.0, 401))
        with pytest.raises(ValueError, match=r"^f\(\.; theta=\[0\.\]\) has mass nan, not 1"):
            m.check_normalized([np.array([0.0])])

    @pytest.mark.parametrize("sigma", [1e-300, 1e200, np.nan])
    def test_sigma_without_a_finite_positive_variance_is_refused(self, sigma):
        # n sigma^2 underflows to 0, overflows to inf, or is nan
        with pytest.raises(ValueError, match=r"^sigma = .*, which must be finite and > 0$"):
            gaussian_location_model(n=1, sigma=sigma)


class TestScalarBound:
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_equality(self, sigma):
        m = gaussian_location_model(n=1, sigma=sigma)
        est = sample_mean_estimator(n=1)
        rep = crm_bound_scalar(m, est, [0.0])
        assert rep.passed
        assert rep.lhs == pytest.approx(sigma, abs=1e-6)
        assert rep.rhs == pytest.approx(sigma, abs=1e-6)
        assert rep.extras["c_opt"] == pytest.approx(1.0 / sigma ** 2, rel=1e-6)
        assert rep.extras["equality_residual"] < 1e-9

    def test_infinite_score_moment_is_flagged(self):
        # f = g (1 + theta K x): the g-score K x is finite, E_g[psi^2] overflows
        def g(coords, theta):
            return np.exp(-coords[0] ** 2 / 2.0) / np.sqrt(2.0 * np.pi)

        def f(coords, theta):
            return g(coords, theta) * (1.0 + theta[0] * 1e200 * coords[0])

        m = ParametricModel(f, g, 1, Axis(-8.0, 8.0, 401), name="overflowing-score")
        rep = crm_bound_scalar(m, sample_mean_estimator(n=1), [0.0])
        assert rep.extras == {"flag": "divergent-score-moment"}
        assert not rep.passed and np.isnan(rep.rhs) and rep.lhs == pytest.approx(1.0, rel=1e-6)

    def test_alpha4_strict_with_moment_oracle(self):
        m = gaussian_location_model(n=1)
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=4.0)
        rep = crm_bound_scalar(m, est, [0.0])
        # oracles: E|z|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)
        lhs_exact = 3.0 ** 0.25
        e_z_43 = 2 ** (2.0 / 3.0) * gamma_fn((4.0 / 3.0 + 1) / 2) / np.sqrt(np.pi)
        rhs_exact = 1.0 / e_z_43 ** 0.75
        assert rep.lhs == pytest.approx(lhs_exact, rel=1e-8)
        assert rep.rhs == pytest.approx(rhs_exact, rel=1e-6)
        assert rep.lhs > rep.rhs + 0.1  # strictly above the bound
        assert rep.extras["equality_residual"] > 1e-3

    def test_biased_estimator_doubles_bound(self):
        m = gaussian_location_model(n=1)
        t2 = EstimatorSpec(T=lambda c: 2 * c[0], h=lambda th: float(th[0]), alpha=2.0)
        rep = crm_bound_scalar(m, t2, [0.0])
        assert rep.extras["eta_dot"] == pytest.approx(2.0, rel=1e-8)
        assert rep.rhs == pytest.approx(2.0, rel=1e-6)

    def test_three_bound_forms_coincide_alpha2(self):
        m = gaussian_location_model(n=1)
        est = sample_mean_estimator(n=1)
        scalar_rhs = crm_bound_scalar(m, est, [0.0]).rhs
        quad_rhs = np.sqrt(crm_bound_quadratic(m, est, [0.0]).rhs)
        general = crm_bound_general(m, est, [0.0], np.array([[3.7]]))
        assert scalar_rhs == pytest.approx(quad_rhs, rel=1e-10)
        assert scalar_rhs == pytest.approx(general, rel=1e-10)


class TestFisherMatrix:
    def test_scalar_gaussian(self):
        m = gaussian_location_model(n=1)
        assert fisher_matrix_g(m, [0.0])[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_product_normal_sum_of_scores(self):
        m = gaussian_location_model(n=3)
        assert fisher_matrix_g(m, [0.0])[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_theta_independent_density_gives_zero(self):
        ax = Axis(-10.0, 10.0, 2001)
        dens = lambda c, t: np.exp(-c[0] ** 2 / 2) / np.sqrt(2 * np.pi)
        m = ParametricModel(dens, dens, 1, ax)
        J = fisher_matrix_g(m, [0.0])
        assert J[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_meanvar_matrix(self):
        m = gaussian_meanvar_model()
        J = fisher_matrix_g(m, [0.0, 1.0])
        assert J[0, 0] == pytest.approx(1.0, abs=1e-5)
        assert J[1, 1] == pytest.approx(0.5, abs=1e-5)
        assert abs(J[0, 1]) < 1e-6


class TestQuadraticBound:
    def test_n3_sample_mean_equality(self):
        m = gaussian_location_model(n=3)
        est = sample_mean_estimator(n=3)
        rep = crm_bound_quadratic(m, est, [0.0])
        assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert rep.rhs == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert rep.extras["equality_residual"] < 1e-8

    def test_meanvar_second_moment_estimator(self):
        # T = x^2 estimates h = mu^2 + v; exponential-family efficiency:
        # E[(T-h)^2] = 4 mu^2 v + 2 v^2 = eta' J^-1 eta'
        m = gaussian_meanvar_model()
        theta = [0.7, 1.3]
        est = EstimatorSpec(T=lambda c: c[0] ** 2,
                            h=lambda th: float(th[0] ** 2 + th[1]), alpha=2.0)
        rep = crm_bound_quadratic(m, est, theta)
        exact = 4 * 0.7 ** 2 * 1.3 + 2 * 1.3 ** 2
        assert rep.lhs == pytest.approx(exact, rel=1e-6)
        assert rep.rhs == pytest.approx(exact, rel=1e-4)

    def test_a_optimality_sweep_k2(self):
        m = gaussian_meanvar_model()
        theta = [0.7, 1.3]
        est = EstimatorSpec(T=lambda c: c[0] ** 2,
                            h=lambda th: float(th[0] ** 2 + th[1]), alpha=2.0)
        best = np.sqrt(crm_bound_quadratic(m, est, theta).rhs)
        rng = np.random.default_rng(15)
        for _ in range(20):
            L = rng.normal(size=(2, 2))
            A = L @ L.T + 0.05 * np.eye(2)
            assert crm_bound_general(m, est, theta, A) <= best + 1e-9
        J = fisher_matrix_g(m, theta)
        at_opt = crm_bound_general(m, est, theta, np.linalg.inv(J))
        assert at_opt == pytest.approx(best, rel=1e-9)

    def test_one_score_per_bound(self, monkeypatch):
        # J_g is summed from the score the bound already holds
        calls = []

        def counting(model, theta):
            calls.append(theta)
            return score_g(model, theta)

        monkeypatch.setattr(estimation, "score_g", counting)
        m = gaussian_meanvar_model()
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=2.0)
        rep = crm_bound_quadratic(m, est, [0.0, 1.0])
        assert len(calls) == 1
        assert rep.extras["fisher_matrix"] == fisher_matrix_g(m, [0.0, 1.0]).tolist()

    def test_scale_invariance_in_A(self):
        m = gaussian_meanvar_model()
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=2.0)
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        v1 = crm_bound_general(m, est, [0.0, 1.0], A)
        v2 = crm_bound_general(m, est, [0.0, 1.0], 7.0 * A)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_alpha_must_be_two(self):
        m = gaussian_location_model(n=1)
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=3.0)
        with pytest.raises(ValueError, match="alpha = 2"):
            crm_bound_quadratic(m, est, [0.0])


class TestLocationConsistency:
    def test_theta_score_equals_space_gradient(self):
        # location family: grad_theta f = -f', so psi = -f'/g node-wise
        m = qgaussian_location_model(1.5, 2.0, 1.0, count=8001)
        psi = score_g(m, [0.0])[0]
        gv = m.g_values([0.0])
        fd = gradient(GridDensity(m.axis, m.f_values([0.0])))
        interior = gv > 1e-3 * gv.max()
        assert np.allclose(psi[interior], -fd[interior] / gv[interior], atol=1e-6)

    def test_scalar_bound_equals_product_form(self):
        # Eq-10-style bound with T = x, h = theta at theta = 0 matches the
        # location product form E|x|^a^(1/a) E|f'/g|^b^(1/b) >= 1
        q, alpha = 2.0, 2.0
        m = escort_pair_model(q, alpha, 1.0, count=8001)
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=alpha)
        rep = crm_bound_scalar(m, est, [0.0])
        beta = est.beta
        gv = m.g_values([0.0])
        gd = GridDensity(m.axis, gv)
        fv = m.f_values([0.0])
        fd = gradient(GridDensity(m.axis, fv))
        ratio = np.where(gv > 0, -fd / np.where(gv > 0, gv, 1.0), 0.0)
        x = m.axis.nodes()
        lhs_prod = m.quad(np.abs(x) ** alpha * gv) ** (1 / alpha)
        score_term = m.quad(np.abs(ratio) ** beta * gv) ** (1 / beta)
        assert lhs_prod * score_term == pytest.approx(1.0, abs=2e-4)  # equality case
        assert rep.rhs == pytest.approx(1.0 / score_term, rel=1e-4)

    def test_escort_pair_reduction_to_i_fisher(self):
        # E_g[|psi|^beta] = q^beta I(beta, q)[g] for the escort location pair;
        # the theta-differencing route is checked against the exact closed
        # form to 1e-8 and against the grid-gradient route at its own
        # (support-edge-limited) accuracy
        from qfisher.qgaussian import closed_form_i_fisher
        for q, alpha in ((2.0, 2.0), (1.5, 2.0)):
            beta = alpha / (alpha - 1.0)
            m = escort_pair_model(q, alpha, 1.0, count=16001)
            psi = score_g(m, [0.0])[0]
            gv = m.g_values([0.0])
            lhs = m.quad(np.abs(psi) ** beta * gv)
            exact = q ** beta * closed_form_i_fisher(QGaussianParams(q, alpha, 1.0, 1))
            assert lhs == pytest.approx(exact, rel=1e-8)
            gd = GridDensity(m.axis, gv)
            assert lhs == pytest.approx(q ** beta * i_fisher(gd, q, beta), rel=1e-5)


class TestMonteCarlo:
    def test_gaussian_sigma(self):
        m = gaussian_location_model(n=1)
        est = sample_mean_estimator(n=1)
        val, se = mc_error_moment(m, est, [0.0], trials=100_000, seed=2)
        assert abs(val - 1.0) < 3 * se

    def test_single_trial(self):
        # one draw has no jackknife error: it used to return se = nan
        m = gaussian_location_model(n=1)
        m.sampler_g = lambda theta, rng, size: pytest.fail("samples drawn")
        with pytest.raises(ValueError, match="trials must be >= 2 .*, got 1"):
            mc_error_moment(m, sample_mean_estimator(n=1), [0.4], trials=1, seed=2)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_refused_before_drawing(self, trials):
        m = gaussian_location_model(n=1)
        m.sampler_g = lambda theta, rng, size: pytest.fail("samples drawn")
        with pytest.raises(ValueError, match=f"trials must be >= 2 .*, got {trials}"):
            mc_error_moment(m, sample_mean_estimator(n=1), [0.0], trials, 1)

    def test_qgaussian_matches_quadrature(self):
        m = qgaussian_location_model(2.0, 2.0, 1.0)
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=2.0)
        rep = crm_bound_scalar(m, est, [0.0])
        val, se = mc_error_moment(m, est, [0.0], trials=100_000, seed=8)
        lhs_quad = np.sqrt(0.2)
        assert rep.lhs == pytest.approx(lhs_quad, abs=1e-6)
        assert abs(val - lhs_quad) < 3 * se
        assert val > rep.rhs - 3 * se

    def test_sampler_required(self):
        m = gaussian_meanvar_model()
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=2.0)
        with pytest.raises(ValueError, match="sampler"):
            mc_error_moment(m, est, [0.0, 1.0], 10, 1)


class TestQcrProduct:
    def test_classical_gaussian_equality(self):
        g = grid_density(QGaussianParams(1.0, 2.0, 0.5, 1), count=8001)
        rep = qcr_product(g, 1.0, 2.0, TOL_EQ)
        assert rep.lhs == pytest.approx(1.0, abs=1e-6)
        assert rep.passed

    @pytest.mark.parametrize("q,alpha", [(2.0, 2.0), (1.5, 2.0), (2.0, 3.0)])
    def test_qgaussian_equality_points(self, q, alpha):
        g = grid_density(QGaussianParams(q, alpha, 1.0, 1), count=8001)
        rep = qcr_product(g, q, alpha, TOL_EQ)
        assert rep.lhs == pytest.approx(1.0, abs=1e-4)
        assert rep.extras["form_discrepancy_factor"] == pytest.approx(
            q ** (alpha / (alpha - 1.0) - 1.0))
        assert rep.extras["qbeta_outside_form"] == pytest.approx(
            rep.lhs * rep.extras["form_discrepancy_factor"], rel=1e-12)

    def test_mixture_strictly_above(self):
        ax = Axis(-8.0, 8.0, 4001)
        f = normalize(density_from_callable(
            ax,
            lambda x: 0.5 * (np.exp(-(x - 2) ** 2 / 0.5) + np.exp(-(x + 2) ** 2 / 0.5))
            / np.sqrt(0.5 * np.pi) / 2.0))
        rep = qcr_product(f, 1.0, 2.0)
        assert rep.lhs > 1.0 + 0.1
        assert rep.passed

    def test_recenter_warning(self):
        ax = Axis(-9.0, 11.0, 2001)
        f = density_from_callable(
            ax, lambda x: np.exp(-(x - 1.0) ** 2 / 2) / np.sqrt(2 * np.pi))
        with pytest.warns(UserWarning, match="recentered"):
            rep = qcr_product(f, 1.0, 2.0, TOL_EQ)
        assert rep.lhs == pytest.approx(1.0, abs=1e-5)

    def test_perturbed_family_above_n_min_near_reference(self):
        q, alpha = 2.0, 2.0
        p = QGaussianParams(q, alpha, 1.0, 1)
        target = moment_alpha(p)
        rng = np.random.default_rng(23)
        amps = np.geomspace(0.01, 0.2, 5)
        gaps = []
        for _ in range(20):
            bump = fourier_bump(rng)
            for a in amps:
                fp = perturbed_density(p, bump, float(a), "moment", target, 2001)
                fp, _ = recenter(fp)
                gaps.append((qcr_product(fp, q, alpha).lhs - 1.0, float(a)))
        assert len(gaps) == 100
        assert all(gap > -1e-9 for gap, _ in gaps)
        min_gap, min_amp = min(gaps)
        assert min_amp == pytest.approx(0.01)

    def test_alpha_validation(self):
        g = grid_density(QGaussianParams(2.0, 2.0, 1.0, 1), count=2001)
        with pytest.raises(ValueError):
            qcr_product(g, 2.0, 1.0)

    def test_two_dimensional_equality(self):
        # radial: 801 radii on [0, 1.05 R]
        p = QGaussianParams(1.5, 2.0, 1.0, 2)
        g = grid_density(p, count=801)
        assert g.dim == 2 and g.axis.lo == 0.0
        rep = qcr_product(g, 1.5, 2.0, Tolerances(inequality_slack=1e-5))
        assert rep.rhs == 2.0
        assert rep.lhs == pytest.approx(2.0, abs=1e-5)

    def test_divergent_fisher_flagged(self):
        # near-vanishing plateau with a large negative Fisher exponent: the
        # integrand overflows and the report is flagged, not trusted
        ax = Axis(-2.0, 2.0, 1601)
        f = normalize(density_from_callable(
            ax, lambda x: np.clip(1 - x * x, 0, None) ** 40 + 1e-280))
        rep = qcr_product(f, 0.01, 2.0)
        assert rep.extras["flag"] == "divergent-fisher"
        assert not rep.passed

    def test_divergent_fisher_flag_comes_from_typed_error(self):
        ax = Axis(-2.0, 2.0, 1601)
        f = normalize(density_from_callable(
            ax, lambda x: np.clip(1 - x * x, 0, None) ** 40 + 1e-280))
        with pytest.raises(NonFiniteError):
            i_fisher(f, 0.01, 2.0)
        assert qcr_product(f, 0.01, 2.0).extras == {"flag": "divergent-fisher"}

    def test_unrelated_value_error_propagates(self, monkeypatch):
        # the message mentions "non-finite", but only the type decides
        def broken(g, q, beta):
            raise ValueError("non-finite lookalike from another check")

        monkeypatch.setattr(estimation, "i_fisher", broken)
        g = grid_density(QGaussianParams(2.0, 2.0, 1.0, 1), count=2001)
        with pytest.raises(ValueError, match="lookalike"):
            qcr_product(g, 2.0, 2.0)


class TestRegistry:
    def test_names(self):
        assert set(MODEL_REGISTRY) == {"gaussian-location", "qgaussian-location", "escort-pair"}

    @pytest.mark.parametrize("name,kwargs", [
        ("gaussian-location", dict(n=2)),
        ("qgaussian-location", dict(q=1.5, alpha=2.0)),
        ("escort-pair", dict(q=2.0, alpha=2.0)),
    ])
    def test_models_normalized(self, name, kwargs):
        m = MODEL_REGISTRY[name](**kwargs)
        m.check_normalized([np.array([0.0]), np.array([0.2])])

    @pytest.mark.parametrize("name,kwargs,divisor", [
        ("gaussian-location", dict(n=3), 3),
        ("qgaussian-location", dict(q=1.5, alpha=2.0), 1),
        ("escort-pair", dict(q=2.0, alpha=2.0), 1),
    ])
    def test_models_name_their_estimator(self, name, kwargs, divisor):
        m = MODEL_REGISTRY[name](**kwargs)
        est = m.estimator(3.0)
        x = m.axis.nodes()
        assert est.alpha == 3.0 and est.h(np.array([0.7])) == 0.7
        assert np.array_equal(est.T([x]), x / divisor)

    @pytest.mark.parametrize("name,kwargs,theta", [
        ("gaussian-location", dict(n=1), 30.0),  # the density sits off the +-11 axis
        ("escort-pair", dict(q=2.0, alpha=2.0), 3.0),  # off the +-1.55 axis
    ])
    def test_bounds_refuse_theta_off_the_grid(self, name, kwargs, theta):
        m = MODEL_REGISTRY[name](**kwargs)
        est = m.estimator(2.0)
        for bound in (lambda: crm_bound_scalar(m, est, [theta]),
                      lambda: crm_bound_quadratic(m, est, [theta]),
                      lambda: crm_bound_general(m, est, [theta], [[1.0]])):
            with pytest.raises(ValueError, match=r"f\(\.; theta=.*has mass"):
                bound()

    def test_escort_pair_relation(self):
        # f ~ g^q pointwise up to the normalizing constant
        m = escort_pair_model(2.0, 2.0, 1.0)
        fv = m.f_values([0.0])
        gv = m.g_values([0.0])
        mq = m.quad(gv ** 2)
        assert np.allclose(fv, gv ** 2 / mq, atol=1e-10)


NAN = float("nan")


def _off_centre():
    ax = Axis(-9.0, 11.0, 2001)
    return density_from_callable(ax, lambda x: np.exp(-(x - 1.0) ** 2 / 2) / np.sqrt(2 * np.pi))


#: a call with a NaN (or, with an off-centre density, q = 0) for one
#: parameter -> that parameter's name
REFUSALS = {
    "qcr_product q=nan": (lambda: qcr_product(_off_centre(), NAN, 2.0), "q"),
    "qcr_product q=0": (lambda: qcr_product(_off_centre(), 0.0, 2.0), "q"),
    "qcr_product alpha=nan": (lambda: qcr_product(_off_centre(), 1.0, NAN), "alpha"),
    "phi_fisher beta=nan": (lambda: phi_fisher(_off_centre(), 1.0, NAN), "beta"),
    "i_fisher beta=nan": (lambda: i_fisher(_off_centre(), 2.0, NAN), "beta"),
    "m_q q=nan": (lambda: m_q(_off_centre(), NAN), "q"),
    "escort q=nan": (lambda: escort(_off_centre(), NAN), "q"),
    "escort_inverse q=nan": (lambda: escort_inverse(_off_centre(), NAN), "q"),
    "EstimatorSpec alpha=nan":
        (lambda: EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=NAN), "alpha"),
    "crm_bound_general A=nan": (lambda: crm_bound_general(
        gaussian_location_model(n=1), sample_mean_estimator(n=1), [0.0], [[NAN]]), "A"),
    "barenblatt t=nan": (lambda: barenblatt(DiffusionParams(2.0, 2.0, 1), 1.0, [0.0], NAN), "t"),
    "barenblatt_mass C=nan": (lambda: barenblatt_mass(DiffusionParams(2.0, 2.0, 1), NAN), "C"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_validators_refuse_nan_up_front(case):
    # a NaN fails `x <= bound` too, so each check is `not x > bound`; the
    # parameters are checked before any work, a recentering among it
    call, name = REFUSALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must"):
            call()
