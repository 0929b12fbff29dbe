"""`core.quad` and `core.brentq`, qfisher's calls of the compiled QUADPACK
dqagse and Brent routines, against scipy's public `quad` and `brentq`, bit
for bit: the value and trouble code of `quad`, the root of `brentq`, and
the errors both raise; and the qgaussian constants and scales computed
through them against the same computation on scipy's public functions."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from qfisher import core
from qfisher.acceptance import QCR_POINTS
from qfisher.core import scipy_module, sphere_surface
from qfisher.qgaussian import (
    DiffusionParams,
    QGaussianParams,
    barenblatt_mass_constant,
    barenblatt_profile,
    closed_form_entropy_power,
    gamma_for_entropy_power,
    gamma_for_moment,
)

LIMITS = (1, 2, 3, 5, 10, 50, 200)
#: (m, beta) of the Barenblatt integrands, all compact (q > 1; the q <= 1
#: masses are closed forms): the three compact acceptance runs and two more
#: slow diffusions, (3, 1.5) at q = 2 and (1.5, 2.5) at q = 11/6
BARENBLATT_PAIRS = ((2.0, 2.0), (1.0, 3.0), (2.0, 3.0), (3.0, 1.5), (1.5, 2.5))
#: unit-mass constants of the four acceptance runs, pinned by `reproduce`
ACCEPTANCE_C = {(1.0, 2.0): 0.2820947917738781, (2.0, 2.0): 0.3605623925768521,
                (1.0, 3.0): 0.6646932161028651, (2.0, 3.0): 0.35699490445092164}
#: a phrase of each of scipy's messages for QUADPACK's ier 1-5
SCIPY_IER_PHRASES = {1: "maximum number of subdivisions", 2: "roundoff error is detected",
                     3: "Extremely bad integrand", 4: "extrapolation table",
                     5: "probably divergent"}


def scipy_quad(f, a, b, limit):
    """(value, ier) from scipy's quad."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(f, a, b, limit=limit, full_output=1)
    ier = 0
    if len(out) > 3:  # the message, present exactly when ier > 0
        ier, = [k for k, phrase in SCIPY_IER_PHRASES.items() if phrase in out[3]]
    return out[0], ier


def core_quad(f, a, b, limit):
    """(value, ier) from core.quad, ier read off its "quad:" UserWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = core.quad(f, a, b, limit)
    ier = 0
    if caught:
        assert len(caught) == 1 and caught[0].category is UserWarning
        message = str(caught[0].message)
        assert message.startswith("quad: ")  # the prefix pyproject's filter matches
        ier = int(message.split("ier = ")[1][0])
    return value, ier


def assert_same_quad(f, a, b, limit):
    expected = scipy_quad(f, a, b, limit)
    got = core_quad(f, a, b, limit)
    # equal floats compare equal; a NaN would fail, and none is expected
    assert got == expected
    return got


def barenblatt_integrand(dp, C):
    # the integrand of qgaussian.barenblatt_mass (q > 1), and of the
    # half-line reference for q <= 1
    def integrand(r):
        return float(barenblatt_profile(dp, C, r) * r ** (dp.dim - 1))
    return integrand


def barenblatt_upper(dp, C):
    return math.inf if dp.is_q1 or dp.q < 1 else (C / dp.k) ** (1.0 / dp.alpha)


class TestQuad:
    @pytest.mark.parametrize("m, beta", BARENBLATT_PAIRS)
    def test_barenblatt_integrands(self, m, beta):
        dp = DiffusionParams(m, beta, 1)
        for log_c in range(-6, 7):
            C = math.exp(log_c)
            assert_same_quad(barenblatt_integrand(dp, C), 0.0, barenblatt_upper(dp, C), 200)

    @pytest.mark.parametrize("limit", LIMITS)
    def test_barenblatt_integrands_every_limit(self, limit):
        for m, beta in BARENBLATT_PAIRS:
            dp = DiffusionParams(m, beta, 1)
            for C in (math.exp(-3.0), 1.0, math.exp(3.0)):
                assert_same_quad(barenblatt_integrand(dp, C), 0.0, barenblatt_upper(dp, C), limit)

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("name, f", [
        ("x^-1/2", lambda x: x ** -0.5 if x > 0 else 0.0),
        ("log x", lambda x: math.log(x) if x > 0 else 0.0),
        ("x^-0.9", lambda x: x ** -0.9 if x > 0 else 0.0),
        ("sin(1/x)", lambda x: math.sin(1.0 / x) if x > 0 else 0.0),
        # many subintervals with equal error estimates: ties in the ordering
        ("floor(1000x) mod 2", lambda x: math.floor(1000.0 * x) % 2),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_finite_ranges(self, name, f, limit):
        for b in (1.0, 2.5):
            assert_same_quad(f, 0.0, b, limit)

    @pytest.mark.parametrize("ier, f, a, b, limit", [
        (1, lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0, 10),
        (2, lambda x: ((3e8 + math.exp(-x)) - 3e8) * 1e8, 0.0, 100.0, 200),
        (3, lambda x: 1.0 / abs(x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0, 200),
        (4, lambda x: (1e12 + x ** -0.5) - 1e12, 0.0, 1.0, 200),
        (5, lambda x: x ** -1.5 if x > 0 else 0.0, 0.0, 1.0, 50),
    ])
    def test_each_ier_warns_as_scipy(self, ier, f, a, b, limit):
        assert assert_same_quad(f, a, b, limit)[1] == ier
        with pytest.warns(UserWarning, match=f"^quad: QUADPACK ier = {ier} "):
            core.quad(f, a, b, limit)

    def test_nan_integrand_warns_as_scipy(self):
        # QUADPACK reads a NaN integrand as roundoff trouble, ier = 2
        value, ier = core_quad(lambda x: math.nan, 0.0, 1.0, 200)
        reference, reference_ier = scipy_quad(lambda x: math.nan, 0.0, 1.0, 200)
        assert ier == reference_ier == 2
        assert math.isnan(value) and math.isnan(reference)


def cubic(c):
    return lambda x: x ** 3 - c


def shifted_exp(c):
    return lambda x: math.exp(x) - 1.0 - c


def flat_odd(c):
    return lambda x: (x - c) ** 5


def kink(c):
    return lambda x: math.tanh(10.0 * (x - c)) + 1e-3 * (x - c)


def outcome(solve):
    """The root, or the type and message of the error raised."""
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestBrentq:
    @pytest.mark.parametrize("xtol, rtol", [(1e-15, 1e-15), (1e-13, 1e-13)])
    @pytest.mark.parametrize("family", [cubic, shifted_exp, flat_odd, kink])
    def test_roots_match_scipy(self, family, xtol, rtol):
        # flat_odd's fifth-order zero does not converge in 100 iterations
        # at these tolerances: core.brentq must fail as scipy does
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = family(float(rng.uniform(0.1, 0.9)))
            a, b = -float(rng.uniform(0.0, 3.0)), float(rng.uniform(1.0, 4.0))
            assert outcome(lambda: core.brentq(f, a, b, xtol, rtol)) == outcome(
                lambda: optimize.brentq(f, a, b, xtol=xtol, rtol=rtol))

    def test_exact_zero_at_an_end(self):
        assert core.brentq(lambda x: x, 0.0, 1.0, 1e-15, 1e-15) == 0.0
        assert core.brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-15, 1e-15) == 1.0

    def test_same_signs_raise_value_error(self):
        def f(x):
            return x * x + 1.0

        ours = outcome(lambda: core.brentq(f, -1.0, 1.0, 1e-15, 1e-15))
        assert ours == outcome(lambda: optimize.brentq(f, -1.0, 1.0, xtol=1e-15, rtol=1e-15))
        assert ours == (ValueError, "f(a) and f(b) must have different signs")

    @pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: x if x < 0.5 else math.nan],
                             ids=["at a", "inside"])
    def test_nan_raises_value_error(self, f):
        with pytest.raises(ValueError, match="NaN") as ours:
            core.brentq(f, -1.0, 1.0, 1e-15, 1e-15)
        with pytest.raises(ValueError) as reference:
            optimize.brentq(f, -1.0, 1.0, xtol=1e-15, rtol=1e-15)
        assert str(ours.value) == str(reference.value)

    def test_no_convergence_raises_runtime_error(self):
        def step(x):
            return 1.0 if x > 0.3 else -1.0

        ours = outcome(lambda: core.brentq(step, -1e300, 1e300, 1e-300, 1e-15))
        assert ours == outcome(lambda: optimize.brentq(step, -1e300, 1e300, xtol=1e-300,
                                                        rtol=1e-15))
        assert ours[0] is RuntimeError and "100 iterations" in ours[1]


def scipy_mass_constant(dp):
    """barenblatt_mass_constant by scipy's quad and brentq on the mass
    integral, over [0, inf) for q <= 1."""
    def residual(log_c):
        C = math.exp(log_c)
        val, _ = integrate.quad(barenblatt_integrand(dp, C), 0.0, barenblatt_upper(dp, C),
                                limit=200)
        return sphere_surface(dp.dim) * val - 1.0

    lo, hi = -2.0, 2.0
    while residual(lo) * residual(hi) >= 0:
        lo -= 2.0
        hi += 2.0
    return math.exp(optimize.brentq(residual, lo, hi, xtol=1e-15, rtol=1e-15))


def scipy_gamma_for_entropy_power(p, target_n):
    """gamma_for_entropy_power on scipy's brentq."""
    base = closed_form_entropy_power(QGaussianParams(p.q, p.alpha, 1.0, p.dim))

    def residual(log_g):
        return closed_form_entropy_power(
            QGaussianParams(p.q, p.alpha, math.exp(log_g), p.dim)) - target_n

    guess = (base / target_n) ** (p.alpha / 2.0)
    log_g = optimize.brentq(residual, math.log(guess / 8.0), math.log(guess * 8.0),
                            xtol=1e-13, rtol=1e-13)
    return math.exp(log_g)


class TestCallers:
    @pytest.mark.parametrize("pair", sorted(ACCEPTANCE_C))
    def test_acceptance_constants(self, pair):
        dp = DiffusionParams(*pair, 1)
        assert barenblatt_mass_constant(dp) == ACCEPTANCE_C[pair] == scipy_mass_constant(dp)

    @pytest.mark.parametrize("m, beta, dim", [(3.0, 1.5, 1), (1.5, 2.5, 1), (2.0, 2.0, 2)])
    def test_other_constants_match_scipy(self, m, beta, dim):
        dp = DiffusionParams(m, beta, dim)
        assert barenblatt_mass_constant(dp) == scipy_mass_constant(dp)

    @pytest.mark.parametrize("q, alpha", QCR_POINTS)
    def test_entropy_power_roots_at_criterion_8_points(self, q, alpha):
        p1 = QGaussianParams(q, alpha, 1.0, 1)
        for target in (closed_form_entropy_power(p1), 0.3, 7.0):
            assert gamma_for_entropy_power(p1, target) == scipy_gamma_for_entropy_power(p1, target)

    @pytest.mark.parametrize("target", [math.inf, math.nan, 0.0, -1.0])
    def test_targets_not_finite_and_positive_refused(self, target):
        p1 = QGaussianParams(2.0, 2.0, 1.0, 1)
        with pytest.raises(ValueError, match="target entropy power"):
            gamma_for_entropy_power(p1, target)
        with pytest.raises(ValueError, match="target moment"):
            gamma_for_moment(p1, target)

    def test_quadrature_trouble_fails_the_caller(self, monkeypatch):
        # pyproject's filterwarnings makes a "quad:" UserWarning raised in
        # qfisher an error, so a constant whose quadrature misses its
        # tolerance fails the test that computes it instead of warning
        quadpack = scipy_module("scipy.integrate._quadpack")
        qagse = quadpack._qagse

        def troubled(*args):
            result, abserr, _ = qagse(*args)
            return result, abserr, 1

        monkeypatch.setattr(quadpack, "_qagse", troubled)
        with pytest.raises(UserWarning, match="^quad: .*ier = 1"):
            barenblatt_mass_constant(DiffusionParams(2.0, 3.0, 1))
