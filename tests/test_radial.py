"""Radial densities on R^n, n >= 2: the paper's equality cases against
closed forms, the escort tail check at r = R, and the n-D Barenblatt mass."""

import numpy as np
import pytest

from qfisher.acceptance import QCR_POINTS
from qfisher.core import Axis, Tolerances, integrate
from qfisher.estimation import qcr_product
from qfisher.inequalities import stam_ratio
from qfisher.info_measures import (
    EscortDivergenceError,
    entropy_power,
    escort,
    i_fisher,
    m_q,
    moment_abs,
)
from qfisher.qgaussian import (
    DiffusionParams,
    QGaussianParams,
    barenblatt_density,
    barenblatt_equivalent_qgaussian,
    barenblatt_mass,
    barenblatt_mass_constant,
    closed_form_entropy_power,
    closed_form_i_fisher,
    closed_form_m_q,
    grid_density,
    moment_alpha,
    normalization,
)

#: every reading below is within this relative distance of its closed form
#: at 8001 nodes on [0, 1.05 R]
REL = 1e-6
TOL = Tolerances(inequality_slack=REL)

CASES = [(n, q, alpha) for n in (2, 3) for q, alpha in QCR_POINTS]


def radial_qgaussian(n, q, alpha):
    return grid_density(QGaussianParams(q, alpha, 1.0, n), 8001)


@pytest.mark.parametrize("n,q,alpha", CASES)
class TestEqualityCases:
    def test_grid_is_radial(self, n, q, alpha):
        f = radial_qgaussian(n, q, alpha)
        assert f.dim == n and f.axis.lo == 0.0 and f.axis.count == 8001
        assert integrate(f) == pytest.approx(1.0, abs=1e-10)

    def test_qcr_product_equals_n(self, n, q, alpha):
        rep = qcr_product(radial_qgaussian(n, q, alpha), q, alpha, TOL)
        assert rep.rhs == float(n)
        assert rep.lhs == pytest.approx(n, rel=REL)
        assert rep.passed

    def test_stam_ratio_equals_one(self, n, q, alpha):
        beta = alpha / (alpha - 1.0)
        rep = stam_ratio(radial_qgaussian(n, q, alpha), q, beta, TOL)
        assert rep.lhs == pytest.approx(1.0, abs=REL)
        assert rep.passed

    def test_functionals_match_closed_forms(self, n, q, alpha):
        p = QGaussianParams(q, alpha, 1.0, n)
        f = radial_qgaussian(n, q, alpha)
        assert i_fisher(f, q, p.beta) == pytest.approx(closed_form_i_fisher(p), rel=REL)
        assert m_q(f, q) == pytest.approx(closed_form_m_q(p), rel=REL)
        assert moment_abs(f, alpha) == pytest.approx(moment_alpha(p), rel=REL)
        assert entropy_power(f, q) == pytest.approx(closed_form_entropy_power(p), rel=REL)


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_fisher_information_is_n(n):
    # N(0, I_n): I = phi(2, 1) = n and N_1 = 2 pi e
    f = grid_density(QGaussianParams(1.0, 2.0, 0.5, n), 8001)
    assert i_fisher(f, 1.0, 2.0) == pytest.approx(n, rel=REL)
    assert entropy_power(f, 1.0) == pytest.approx(2 * np.pi * np.e, rel=REL)


class TestEscortTail:
    def test_truncated_heavy_tail_detected(self):
        # tail r^(-4.44) in R^2; f^(1/4) decays as r^(-1.11), not integrable
        # against r dr: the check must fire at the far end r = R (were the
        # centre, where f peaks, read as an end, it never could)
        f = grid_density(QGaussianParams(0.55, 2.0, 1.0, 2), 4001)
        with pytest.raises(EscortDivergenceError):
            escort(f, 4.0)
        # f^(1/3) decays as r^(-1.48), below 1e-6 of its peak at r = R, but
        # r f^(1/3) decays only as r^(-0.48): the r^(n-1) weight must be read
        with pytest.raises(EscortDivergenceError, match=r"r\^\(n-1\) f\^\(1/q\)"):
            escort(f, 3.0)
        # f^(1/1.5) decays as r^(-2.96): integrable, no alarm
        assert integrate(escort(f, 1.5)) == pytest.approx(1.0, abs=1e-10)

    def test_compact_escort_is_radial(self):
        f = grid_density(QGaussianParams(2.0, 2.0, 1.0, 2), 4001)
        g = escort(f, 2.0)
        assert g.dim == 2 and g.axis == f.axis
        assert integrate(g) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m,beta,n", [(2.0, 2.0, 2), (1.0, 3.0, 3), (2.0, 2.0, 3), (1.0, 3.0, 2)])
class TestBarenblattMass:
    def test_mass_matches_qgaussian_normalization(self, m, beta, n):
        # B = (C - k r^alpha)_+^(1/(q-1)) = C^(1/(q-1)) times the profile of
        # the q-Gaussian twin at t = 1, whose mass is its normalization Z
        dp = DiffusionParams(m, beta, n)
        for C in (0.3, 1.0, 2.5):
            twin = barenblatt_equivalent_qgaussian(dp, C, 1.0)
            oracle = C ** (1.0 / (dp.q - 1.0)) * normalization(twin)
            assert barenblatt_mass(dp, C) == pytest.approx(oracle, rel=1e-8)

    def test_unit_mass_constant(self, m, beta, n):
        dp = DiffusionParams(m, beta, n)
        C = barenblatt_mass_constant(dp)
        twin = barenblatt_equivalent_qgaussian(dp, C, 1.0)
        assert C ** (1.0 / (dp.q - 1.0)) * normalization(twin) == pytest.approx(1.0, abs=1e-8)

    def test_radial_density_has_unit_mass(self, m, beta, n):
        dp = DiffusionParams(m, beta, n)
        C = barenblatt_mass_constant(dp)
        edge = (C / dp.k) ** (1.0 / dp.alpha) * 1.5 ** (1.0 / dp.delta)
        f = barenblatt_density(dp, 1.5, Axis(0.0, 1.05 * edge, 4001), C)
        assert f.dim == n
        assert integrate(f) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("m,beta,C", [
    (2.0, 2.0, 0.3605623925768521), (1.0, 3.0, 0.6646932161028651),
    (3.0, 2.0, 0.18377629847393062), (1.0, 2.0, 0.2820947917738781)])
def test_one_dimensional_mass_constant_bits(m, beta, C):
    # the n = 1 constants that the reproduce summary is built on
    assert barenblatt_mass_constant(DiffusionParams(m, beta, 1)) == C
