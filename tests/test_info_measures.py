"""Entropies, entropy power, Fisher functionals, escort transform."""

import numpy as np
import pytest

from qfisher import info_measures
from qfisher.core import Axis, GridDensity, density_from_callable, integrate, normalize
from qfisher.info_measures import (
    entropy_power,
    escort,
    escort_inverse,
    i_fisher,
    m_q,
    moment_abs,
    phi_fisher,
    phi_fisher_refined,
    recenter,
    renyi_entropy,
    shannon_entropy,
    tsallis_entropy,
)
from qfisher.qgaussian import QGaussianParams, grid_density, moment_alpha
from qfisher.perturb import fourier_bump, perturbed_density


def uniform_density(lo, hi, count=2001):
    return density_from_callable(Axis(lo, hi, count), lambda x: np.ones_like(x) / (hi - lo))


def gaussian_density(sigma=1.0, half=10.0, count=4001):
    return density_from_callable(
        Axis(-half, half, count),
        lambda x: np.exp(-x * x / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2))


def strided_phis(f, q, beta):
    """phi on the grids of spacing 4h, 2h and h that phi_fisher_refined reads."""
    a = f.axis
    return [phi_fisher(GridDensity(Axis(a.lo, a.hi, (a.count - 1) // stride + 1),
                                   f.values[::stride], f.dim), q, beta) for stride in (4, 2, 1)]


GAUSS = gaussian_density()
UNIF02 = uniform_density(0.0, 2.0)
QG2 = grid_density(QGaussianParams(2.0, 2.0, 1.0, 1), count=8001)


class TestMq:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0, 3.5])
    def test_uniform_unit_interval(self, q):
        assert m_q(uniform_density(0.0, 1.0), q) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_0_2(self):
        assert m_q(UNIF02, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_squared(self):
        # oracle: int phi(x)^2 dx = 1 / (2 sqrt(pi))
        assert m_q(GAUSS, 2.0) == pytest.approx(1.0 / (2 * np.sqrt(np.pi)), abs=1e-8)

    def test_m1_is_unit_mass(self):
        assert m_q(QG2, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_m0_is_support_volume(self):
        f = density_from_callable(Axis(-2.0, 2.0, 1601),
                                  lambda x: np.clip(1 - x * x, 0, None) * 0.75)
        assert m_q(f, 0.0) == pytest.approx(2.0, abs=2e-3)


class TestEntropies:
    def test_tsallis_uniform_unit(self):
        assert tsallis_entropy(uniform_density(0.0, 1.0), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_tsallis_uniform_0_2(self):
        assert tsallis_entropy(UNIF02, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_tsallis_two_sided_limit(self):
        target = 0.5 * np.log(2 * np.pi * np.e)
        for q in (1.0 - 1e-5, 1.0 + 1e-5):
            assert tsallis_entropy(GAUSS, q) == pytest.approx(target, abs=1e-4)

    def test_shannon_gaussian(self):
        assert shannon_entropy(GAUSS) == pytest.approx(0.5 * np.log(2 * np.pi * np.e), abs=1e-8)

    @pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
    def test_renyi_uniform_constant_in_q(self, q):
        assert renyi_entropy(UNIF02, q) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_renyi_gaussian_q1(self):
        assert renyi_entropy(GAUSS, 1.0) == pytest.approx(0.5 * np.log(2 * np.pi * np.e), abs=1e-8)

    def test_renyi_q0_support_volume(self):
        assert renyi_entropy(QG2, 0.0) == pytest.approx(np.log(2.0), abs=2e-3)

    def test_sign_coherence(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sigma = float(rng.uniform(0.2, 3.0))
            f = gaussian_density(sigma)
            for q in (0.5, 2.0, 3.0):
                mq = m_q(f, q)
                sq = tsallis_entropy(f, q)
                if (q > 1 and mq <= 1) or (q < 1 and mq >= 1):
                    assert sq >= 0


class TestEntropyPower:
    def test_gaussian(self):
        assert entropy_power(GAUSS, 1.0) == pytest.approx(2 * np.pi * np.e, abs=1e-6)

    def test_uniform_q2(self):
        assert entropy_power(UNIF02, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_dilation_scaling(self):
        # density of X/c has N_q = N_q[f] / c^2; here c = 2 applied as an
        # exact grid dilation of the compact q-Gaussian
        c = 2.0
        shrunk = GridDensity(Axis(QG2.axis.lo / c, QG2.axis.hi / c, QG2.axis.count), QG2.values * c)
        assert entropy_power(shrunk, 2.0) == pytest.approx(entropy_power(QG2, 2.0) / c ** 2,
                                                           rel=1e-10)

    def test_both_expressions_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            sigma = float(rng.uniform(0.3, 2.0))
            q = float(rng.uniform(0.3, 2.5))
            if abs(q - 1) < 1e-3:
                continue
            f = gaussian_density(sigma)
            n = entropy_power(f, q)  # raises internally if the two forms disagree
            assert n > 0


class TestFisher:
    def test_classical_gaussian(self):
        assert phi_fisher(GAUSS, 1.0, 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_classical_sigma2(self):
        f = gaussian_density(sigma=2.0, half=20.0, count=8001)
        assert phi_fisher(f, 1.0, 2.0) == pytest.approx(0.25, abs=1e-6)

    def test_compact_qgaussian_elementary_integral(self):
        # symbolic oracle: phi(2,2) = int g (g')^2 over [-1,1] with
        # g = (3/4)(1-x^2): (27/16) int x^2 (1-x^2) dx = 9/20
        assert phi_fisher(QG2, 2.0, 2.0) == pytest.approx(9.0 / 20.0, abs=1e-6)

    def test_i_fisher_ratio(self):
        # M_2 = 3/5 so I = (9/20)/(9/25) = 5/4
        assert i_fisher(QG2, 2.0, 2.0) == pytest.approx(1.25, abs=1e-5)

    def test_i_equals_phi_at_q1(self):
        assert i_fisher(GAUSS, 1.0, 2.0) == phi_fisher(GAUSS, 1.0, 2.0)

    def test_translation_invariance(self):
        ax = Axis(-12.0, 12.0, 4801)
        f0 = density_from_callable(ax, lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
        f1 = density_from_callable(ax, lambda x: np.exp(-(x - 0.5) ** 2 / 2) / np.sqrt(2 * np.pi))
        for q, beta in ((1.0, 2.0), (1.5, 2.0)):
            assert phi_fisher(f1, q, beta) == pytest.approx(phi_fisher(f0, q, beta), rel=1e-8)
            assert i_fisher(f1, q, beta) == pytest.approx(i_fisher(f0, q, beta), rel=1e-8)

    def test_refinement_diagnostic_convergent(self):
        diag = phi_fisher_refined(GAUSS, 1.0, 2.0)
        assert not diag.diverged
        assert diag.value == pytest.approx(1.0, abs=1e-6)
        readings = strided_phis(GAUSS, 1.0, 2.0)
        assert diag.value == readings[-1] and max(readings) / min(readings) <= 1.5

    def test_refinement_diagnostic_divergent(self):
        # f ~ (1-x^2)^0.3: classical Fisher integrand f'^2/f ~ d^(-1.7) at the
        # support edge -> divergent; must be flagged, not trusted
        ax = Axis(-1.5, 1.5, 4001)
        f = normalize(density_from_callable(ax, lambda x: np.clip(1 - x * x, 0, None) ** 0.3))
        diag = phi_fisher_refined(f, 1.0, 2.0)
        assert diag.diverged
        readings = strided_phis(f, 1.0, 2.0)
        assert max(readings) / min(readings) > 1.5


class TestEscort:
    def test_identity_at_q1(self):
        out = escort(GAUSS, 1.0)
        assert np.allclose(out.values, GAUSS.values, atol=1e-12)

    def test_gaussian_half_q(self):
        # f^(1/q) = f^2 renormalized: Gaussian with variance sigma^2/2
        out = escort(GAUSS, 0.5)
        assert moment_abs(out, 2.0) == pytest.approx(0.5, abs=1e-6)

    def test_round_trip(self):
        g = escort(QG2, 2.0)
        back = escort(escort_inverse(g, 2.0), 2.0)
        assert np.allclose(back.values, g.values, atol=1e-10)


class TestMaxEntropyCharacterization:
    def test_qgaussian_maximizes_tsallis_under_moment(self):
        q, alpha = 2.0, 2.0
        p = QGaussianParams(q, alpha, 1.0, 1)
        target = moment_alpha(p)
        ref = grid_density(p, 4001)
        s_ref = tsallis_entropy(ref, q)
        rng = np.random.default_rng(17)
        for _ in range(50):
            bump = fourier_bump(rng)
            a = float(rng.uniform(0.01, 0.2))
            fp = perturbed_density(p, bump, a, "moment", target, 4001)
            assert s_ref >= tsallis_entropy(fp, q) - 1e-9


class TestHelpers:
    def test_recenter_and_moments(self):
        ax = Axis(-9.0, 11.0, 4001)
        f = density_from_callable(ax, lambda x: np.exp(-(x - 1.0) ** 2 / 2) / np.sqrt(2 * np.pi))
        g, shift = recenter(f)
        assert shift == pytest.approx(1.0, abs=1e-9)
        assert recenter(g) == (g, 0.0)  # the mean is now below the tolerance
        assert abs(integrate(g, g.axis.nodes() * g.values)) < 1e-12
        assert moment_abs(g, 2.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_moment_abs_power_cached_read_only(self, alpha):
        f = grid_density(QGaussianParams(1.5, alpha, 1.0, 1), 801)
        x = f.axis.nodes()
        want = integrate(f, (x * x) ** (alpha / 2.0) * f.values)
        assert moment_abs(f, alpha) == want
        power = info_measures._abs_power(f.axis, alpha)
        assert info_measures._abs_power(Axis(f.axis.lo, f.axis.hi, f.axis.count), alpha) is power
        with pytest.raises(ValueError, match="read-only"):
            power[0] = 0.0
        assert moment_abs(f, alpha) == want  # from the cache

    @pytest.mark.parametrize("expo", [1.0, 2.0, 1.5, 0.5, 0.0, -0.5, -1.0, 1.0 / 1.5, 3.0])
    def test_whole_support_power_keeps_the_scatter_bits(self, expo):
        # the masked power skips the compaction and scatter where the mask
        # holds everywhere, element for element: on a row, a block of rows
        # and a strided view (as phi_fisher_refined's coarse grids are)
        rng = np.random.default_rng(5)
        block = 10.0 ** rng.uniform(-320, 300, (8, 502))
        for values in [block[0], block[:2], block, block[:, ::2]]:
            mask = values > 0
            assert mask.all()
            want = np.zeros_like(values)
            with np.errstate(over="ignore", divide="ignore"):
                want[mask] = values[mask] ** expo
                got = info_measures._masked_power(values, mask, expo)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [0.8, 1.0, 2.0])
    def test_given_m_q_gives_the_same_bits(self, q):
        f = grid_density(QGaussianParams(q, 2.0, 1.0, 1), 801)
        mq = m_q(f, q)
        assert entropy_power(f, q, mq) == entropy_power(f, q)
        assert i_fisher(f, q, 2.0, mq) == i_fisher(f, q, 2.0)


