"""The in-repo ports of QUADPACK (dqagse, dqagie) and Brent's method
against scipy's `quad` and `brentq`, bit for bit: value, error estimate,
subinterval count and warning of `quad`, the root of `brentq`, and the
errors both raise."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from qfisher import _quadpack
from qfisher.acceptance import QCR_POINTS
from qfisher.core import sphere_surface
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
#: (m, beta) of the Barenblatt integrands: the four acceptance runs and a
#: fast (m = 3) and a slow (q < 1) diffusion
BARENBLATT_PAIRS = ((1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (2.0, 3.0), (3.0, 1.5), (1.5, 2.5))
#: unit-mass constants of the four acceptance runs, pinned by `reproduce`
ACCEPTANCE_C = {(1.0, 2.0): 0.2820947917738781, (2.0, 2.0): 0.3605623925768521,
                (1.0, 3.0): 0.6646932161028651, (2.0, 3.0): 0.35699490445092164}
#: a phrase of each of scipy's messages for QUADPACK's ier 1-5
SCIPY_IER_PHRASES = {1: "maximum number of subdivisions", 2: "roundoff error is detected",
                     3: "Extremely bad integrand", 4: "extrapolation table",
                     5: "probably divergent"}


def scipy_quad(f, a, b, limit):
    """(value, error, subintervals, ier) from scipy's quad."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(f, a, b, limit=limit, full_output=1)
    ier = 0
    if len(out) > 3:  # the message, present exactly when ier > 0
        ier, = [k for k, phrase in SCIPY_IER_PHRASES.items() if phrase in out[3]]
    return out[0], out[1], out[2]["last"], ier


def port_quad(f, a, b, limit):
    """(value, error, subintervals, ier) from the port, ier read off its
    warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, error, last = _quadpack.quad(f, a, b, limit)
    ier = 0
    if caught:
        assert len(caught) == 1 and caught[0].category is _quadpack.IntegrationWarning
        ier = int(str(caught[0].message).split("ier = ")[1][0])
    return value, error, last, ier


def assert_same_quad(f, a, b, limit):
    expected = scipy_quad(f, a, b, limit)
    got = port_quad(f, a, b, limit)
    # equal floats compare equal; a NaN would fail, and none is expected
    assert got == expected
    return got


def barenblatt_integrand(dp, C):
    # the integrand of qgaussian.barenblatt_mass
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

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("name, f", [
        ("exp(-x)", lambda x: math.exp(-x)),
        ("1/(1+x^2)", lambda x: 1.0 / (1.0 + x * x)),
        ("x^-1.1", lambda x: x ** -1.1),
        ("sin(x)/x^2", lambda x: math.sin(x) / (x * x)),
        ("log(x)/x^2", lambda x: math.log(x) / (x * x)),
        ("log x", math.log),  # divergent: an irregular epsilon table
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_half_lines(self, name, f, limit):
        for a in (0.5, 1.0, 3.0):
            assert_same_quad(f, a, math.inf, limit)

    def test_singularities_drive_the_epsilon_algorithm(self, monkeypatch):
        calls = []
        real = _quadpack._dqelg

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(_quadpack, "_dqelg", counted)
        for f in (lambda x: x ** -0.5 if x > 0 else 0.0, lambda x: math.log(x) if x > 0 else 0.0):
            assert assert_same_quad(f, 0.0, 1.0, 200)[3] == 0
        assert len(calls) > 5 and max(calls) > 5  # tables of more than 5 entries

    @pytest.mark.parametrize("ier, f, a, b, limit", [
        (1, lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0, 10),
        (2, lambda x: ((3e8 + math.exp(-x)) - 3e8) * 1e8, 1.0, math.inf, 50),
        (3, lambda x: 1.0 / abs(x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0, 200),
        (4, lambda x: (1e16 + 10.0 * x) - 1e16, 1.0, math.inf, 200),
        (5, lambda x: x ** -1.5 if x > 0 else 0.0, 0.0, 1.0, 50),
    ])
    def test_each_ier_warns_as_scipy(self, ier, f, a, b, limit):
        assert assert_same_quad(f, a, b, limit)[3] == ier
        assert issubclass(_quadpack.IntegrationWarning, UserWarning)
        with pytest.warns(_quadpack.IntegrationWarning, match=f"ier = {ier}"):
            _quadpack.quad(f, a, b, limit)


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
        # at these tolerances: the port must fail as scipy does
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = family(float(rng.uniform(0.1, 0.9)))
            a, b = -float(rng.uniform(0.0, 3.0)), float(rng.uniform(1.0, 4.0))
            assert outcome(lambda: _quadpack.brentq(f, a, b, xtol, rtol)) == outcome(
                lambda: optimize.brentq(f, a, b, xtol=xtol, rtol=rtol))

    def test_exact_zero_at_an_end(self):
        assert _quadpack.brentq(lambda x: x, 0.0, 1.0, 1e-15, 1e-15) == 0.0
        assert _quadpack.brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-15, 1e-15) == 1.0

    def test_same_signs_raise_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            _quadpack.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15, 1e-15)

    @pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: x if x < 0.5 else math.nan],
                             ids=["at a", "inside"])
    def test_nan_raises_value_error(self, f):
        with pytest.raises(ValueError, match="NaN") as port:
            _quadpack.brentq(f, -1.0, 1.0, 1e-15, 1e-15)
        with pytest.raises(ValueError) as reference:
            optimize.brentq(f, -1.0, 1.0, xtol=1e-15, rtol=1e-15)
        assert str(port.value) == str(reference.value)

    def test_no_convergence_raises_runtime_error(self):
        def step(x):
            return 1.0 if x > 0.3 else -1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            optimize.brentq(step, -1e300, 1e300, xtol=1e-300, rtol=1e-15)
        with pytest.raises(RuntimeError, match="100 iterations"):
            _quadpack.brentq(step, -1e300, 1e300, 1e-300, 1e-15)


def scipy_mass_constant(dp):
    """barenblatt_mass_constant on scipy's quad and brentq."""
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
        # pyproject's filterwarnings makes an IntegrationWarning raised in
        # qfisher an error, so a constant whose quadrature misses its
        # tolerance fails the test that computes it instead of warning
        qags = _quadpack._qags

        def troubled(*args):
            result, abserr, _, last = qags(*args)
            return result, abserr, 1, last

        monkeypatch.setattr(_quadpack, "_qags", troubled)
        with pytest.raises(_quadpack.IntegrationWarning, match="ier = 1"):
            barenblatt_mass_constant(DiffusionParams(2.0, 3.0, 1))
