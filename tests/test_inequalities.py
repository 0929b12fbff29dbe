"""Stam inequality and minimum-Fisher variational characterizations."""

import functools
import itertools
import re

import numpy as np
import pytest

from qfisher import inequalities
from qfisher.core import Axis, GridDensity, Tolerances, density_from_callable, integrate, normalize
from qfisher.inequalities import (
    min_fisher_fixed_entropy,
    min_fisher_fixed_moment,
    stam_hypothesis_ok,
    stam_product,
    stam_ratio,
)
from qfisher.perturb import fourier_bump, perturbed_density
from qfisher.qgaussian import (
    QGaussianParams,
    closed_form_entropy_power,
    closed_form_stam_product,
    gamma_for_moment,
    grid_density,
    moment_alpha,
    pdf,
)

TOL_EQ = Tolerances(inequality_slack=1e-4)


def mixture_density(count=8001):
    ax = Axis(-9.0, 9.0, count)
    return normalize(density_from_callable(
        ax,
        lambda x: (np.exp(-(x - 2.0) ** 2 / 0.5) + np.exp(-(x + 2.0) ** 2 / 0.5))))


class TestStam:
    def test_classical_product_value(self):
        f = grid_density(QGaussianParams(1.0, 2.0, 0.5, 1), count=8001)
        # classical Stam equality: I^(1/2) N^(1/2) = 1 * sqrt(2 pi e)
        assert stam_product(f, 1.0, 2.0) == pytest.approx(np.sqrt(2 * np.pi * np.e), rel=1e-6)

    @pytest.mark.parametrize("q,beta", [(1.0, 2.0), (2.0, 2.0), (1.5, 2.0), (2.0, 1.5)])
    def test_equality_at_family(self, q, beta):
        alpha = beta / (beta - 1.0)
        f = grid_density(QGaussianParams(q, alpha, 1.0 if q != 1 else 0.5, 1), count=8001)
        rep = stam_ratio(f, q, beta, TOL_EQ)
        assert rep.lhs == pytest.approx(1.0, abs=1e-4)
        assert rep.passed

    def test_scale_invariance_of_f_side(self):
        # dilated Gaussian: product identical within 1e-8 (I ~ c^-2, N ~ c^2)
        for sigma in (0.5, 1.0, 3.0):
            f = density_from_callable(
                Axis(-12.0 * sigma, 12.0 * sigma, 8001),
                lambda x: np.exp(-x * x / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2))
            assert stam_product(f, 1.0, 2.0) == pytest.approx(np.sqrt(2 * np.pi * np.e), rel=1e-8)

    def test_mixture_strictly_above(self):
        rep = stam_ratio(mixture_density(), 1.0, 2.0)
        assert rep.lhs > 1.0 + 0.05
        assert rep.passed

    def test_dilation_exponent_fit(self):
        # the Stam product is exactly dilation invariant: fitted law ~ c^0.
        # Exact dilations of the grid, x -> c x (axis scaled by c, values by
        # 1/c^n), on the line and radially in R^2 and R^3
        scales = (0.5, 0.7071067811865476, 1.0, 1.4142135623730951, 2.0)
        for n, (q, beta) in itertools.product((1, 2, 3), ((1.0, 2.0), (2.0, 2.0), (1.5, 3.0))):
            alpha = beta / (beta - 1.0)
            f = grid_density(QGaussianParams(q, alpha, 1.0 if q != 1 else 0.5, n), count=4001)
            dilated = [GridDensity(Axis(f.axis.lo * c, f.axis.hi * c, f.axis.count),
                                   f.values / c ** n, n) for c in scales]
            logs = [np.log(stam_product(fc, q, beta)) for fc in dilated]
            assert abs(np.polyfit(np.log(scales), logs, 1)[0]) < 1e-6

    def test_hypothesis_guard(self):
        assert stam_hypothesis_ok(1.0, 2.0, 1)
        assert not stam_hypothesis_ok(0.3, 2.0, 1)  # n/(n+alpha) = 1/3 > 0.3

    def test_beta_not_two_reference_matches_moment(self):
        q, beta = 2.0, 1.5
        alpha = 3.0
        f = grid_density(QGaussianParams(q, alpha, 2.0, 1), count=8001)
        rep = stam_ratio(f, q, beta, TOL_EQ)
        assert rep.lhs == pytest.approx(1.0, abs=1e-4)
        # reference gamma solved to match f's alpha-moment
        assert rep.extras["ref_gamma"] == pytest.approx(2.0, rel=1e-5)


class TestMinFisherMoment:
    def test_classical_recovery(self):
        rep = min_fisher_fixed_moment(1.0, 2.0, 1.0, seed=5, perturbation_count=50,
                                      grid_count=4001, tol=Tolerances(inequality_slack=1e-6))
        assert rep.passed
        assert rep.extras["value_G"] == pytest.approx(1.0, abs=1e-6)
        assert rep.extras["gamma"] == pytest.approx(0.5, rel=1e-8)
        assert rep.extras["min_perturbed"] >= 1.0
        assert rep.extras["perturbations"] == 50

    def test_q2_recovers_gamma_one(self):
        rep = min_fisher_fixed_moment(2.0, 2.0, 0.2, seed=5, perturbation_count=25,
                                      grid_count=4001, tol=Tolerances(inequality_slack=1e-6))
        assert rep.passed
        assert rep.extras["gamma"] == pytest.approx(1.0, rel=1e-8)
        assert rep.extras["value_G"] == pytest.approx(1.25, abs=1e-4)
        assert rep.extras["value_G_closed_form"] == pytest.approx(1.25, abs=1e-12)

    def test_stationarity_exponent(self):
        rep = min_fisher_fixed_moment(1.0, 2.0, 1.0, seed=6, perturbation_count=20,
                                      grid_count=4001)
        assert 1.7 <= rep.extras["gap_amplitude_exponent"] <= 2.3

    def test_deterministic_given_seed(self):
        r1 = min_fisher_fixed_moment(1.5, 2.0, 0.5, seed=9, perturbation_count=10,
                                     grid_count=2001)
        r2 = min_fisher_fixed_moment(1.5, 2.0, 0.5, seed=9, perturbation_count=10,
                                     grid_count=2001)
        # repr, not ==: a NaN extra never equals itself
        assert repr(r1) == repr(r2)

    @pytest.mark.parametrize("target", [1e9, 1e-9])
    def test_moment_check_is_relative(self, target, monkeypatch):
        # at 1e9 the dilated gamma misses by half an ulp of the target, more
        # than 1e-8; at 1e-9 a doubled gamma misses by half the target
        run = functools.partial(min_fisher_fixed_moment, 2.0, 2.0, target, seed=1,
                                perturbation_count=5, grid_count=401)
        assert run().extras["perturbations"] == 5
        monkeypatch.setattr(inequalities, "gamma_for_moment",
                            lambda p, moment: 2.0 * gamma_for_moment(p, moment))
        with pytest.raises(ArithmeticError, match=re.escape(f"moment {target:g} by {target / 2:g}")):
            run()


class TestMinFisherEntropy:
    def test_classical_recovery(self):
        target = float(2 * np.pi * np.e)
        rep = min_fisher_fixed_entropy(1.0, 2.0, target, seed=5, perturbation_count=50,
                                       grid_count=4001, tol=Tolerances(inequality_slack=1e-6))
        assert rep.passed
        assert rep.extras["gamma"] == pytest.approx(0.5, rel=1e-8)
        assert rep.extras["value_G"] == pytest.approx(1.0, abs=1e-6)
        assert rep.extras["entropy_power_G"] == pytest.approx(target, rel=1e-10)

    def test_minimizer_is_stam_equality_case(self):
        q, beta = 2.0, 2.0
        p1 = QGaussianParams(q, 2.0, 1.0, 1)
        rep = min_fisher_fixed_entropy(q, beta, closed_form_entropy_power(p1), seed=4,
                                       perturbation_count=10, grid_count=4001,
                                       tol=Tolerances(inequality_slack=1e-6))
        assert rep.passed
        g = grid_density(QGaussianParams(q, 2.0, rep.extras["gamma"], 1), count=8001)
        assert stam_ratio(g, q, beta, TOL_EQ).lhs == pytest.approx(1.0, abs=1e-4)

    def test_perturbed_have_stam_ratio_above_one(self):
        q, beta = 2.0, 2.0
        p = QGaussianParams(q, 2.0, 1.0, 1)
        target = closed_form_entropy_power(p)
        rng = np.random.default_rng(31)
        for _ in range(5):
            bump = fourier_bump(rng)
            fp = perturbed_density(p, bump, 0.1, "entropy_power", target, 4001)
            assert stam_ratio(fp, q, beta).lhs > 1.0


class TestEqualityCaseConsistency:
    def test_three_characterizations_share_profile(self):
        # Stam equality member, q-CR/moment minimizer, and the max-S_q member
        # are all q-Gaussians of the same (q, alpha); after dilation to a
        # common alpha-moment they agree pointwise
        q, alpha = 2.0, 2.0
        target = 0.17
        gam_moment = gamma_for_moment(QGaussianParams(q, alpha, 1.0, 1), target)
        p_moment = QGaussianParams(q, alpha, gam_moment, 1)
        p_stam = QGaussianParams(q, alpha, 1.0, 1)  # any member: scale family
        c = (moment_alpha(p_stam) / target) ** (1.0 / alpha)
        ax = Axis(-1.2 / np.sqrt(gam_moment), 1.2 / np.sqrt(gam_moment), 4001)
        x = ax.nodes()
        dilated_stam = pdf(p_stam, x * c) * c
        assert np.max(np.abs(dilated_stam - pdf(p_moment, x))) < 1e-6

    def test_perturbation_family_infrastructure(self):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        rng = np.random.default_rng(3)
        bump = fourier_bump(rng)
        fp = perturbed_density(p, bump, 0.15, "moment", 0.2, 4001)
        assert integrate(fp) == pytest.approx(1.0, abs=1e-10)
        from qfisher.info_measures import moment_abs
        assert moment_abs(fp, 2.0) == pytest.approx(0.2, abs=1e-9)


def test_reference_closed_form_is_scale_free():
    # closed-form Stam product identical across gamma (dilation invariance)
    vals = [closed_form_stam_product(QGaussianParams(2.0, 2.0, g, 1)) for g in (0.25, 1.0, 4.0)]
    assert np.allclose(vals, vals[0], rtol=1e-12)


def test_two_dimensional_stam_equality():
    # radial: 801 radii on [0, 1.05 R]
    p = QGaussianParams(1.5, 2.0, 1.0, 2)
    g = grid_density(p, count=801)
    assert g.dim == 2 and g.axis.lo == 0.0
    rep = stam_ratio(g, 1.5, 2.0, Tolerances(inequality_slack=1e-5))
    assert rep.lhs == pytest.approx(1.0, abs=1e-5)
