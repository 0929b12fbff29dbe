"""Generalized Cramer-Rao machinery: scores, bounds, q-CR product."""

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
from qfisher.info_measures import i_fisher, m_q, recenter
from qfisher.perturb import fourier_bump, perturbed_density
from qfisher.qgaussian import QGaussianParams, grid_density, moment_alpha

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

    def test_qgaussian_matches_quadrature(self):
        m = qgaussian_location_model(2.0, 2.0, 1.0)
        est = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=2.0)
        rep = crm_bound_scalar(m, est, [0.0])
        val, se = mc_error_moment(m, est, [0.0], trials=100_000, seed=8)
        lhs_quad = np.sqrt(0.2)
        assert rep.lhs == pytest.approx(lhs_quad, abs=1e-6)
        assert abs(val - lhs_quad) < 3 * se
        assert val > rep.rhs - 3 * se


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

    def test_escort_pair_relation(self):
        # f ~ g^q pointwise up to the normalizing constant
        m = escort_pair_model(2.0, 2.0, 1.0)
        fv = m.f_values([0.0])
        gv = m.g_values([0.0])
        mq = m.quad(gv ** 2)
        assert np.allclose(fv, gv ** 2 / mq, atol=1e-10)
