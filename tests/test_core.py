"""Grid, quadrature, gradient, and normalization tests."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from qfisher.core import (
    Axis,
    GridDensity,
    NonFiniteError,
    Tolerances,
    density_from_callable,
    gradient,
    integrate,
    normalize,
    sphere_surface,
)
from qfisher.diffusion import DiffusionState, evolve
from qfisher.qgaussian import DiffusionParams, QGaussianParams, barenblatt_density, grid_density


def gaussian_density(ax, sigma=1.0):
    return density_from_callable(
        ax, lambda x: np.exp(-x * x / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2))


class TestIntegrate:
    def test_constant_on_unit_interval(self):
        f = density_from_callable(Axis(0.0, 1.0, 1001), lambda x: np.ones_like(x))
        assert integrate(f) == pytest.approx(1.0, abs=1e-14)

    def test_standard_normal_mass(self):
        f = gaussian_density(Axis(-10.0, 10.0, 4001))
        # oracle: closed-form Gaussian integral over [-10, 10]
        exact = norm.cdf(10.0) - norm.cdf(-10.0)
        assert integrate(f) == pytest.approx(exact, abs=1e-10)

    def test_second_moment_of_normal(self):
        f = gaussian_density(Axis(-10.0, 10.0, 4001))
        val = integrate(f, f.axis.nodes() ** 2 * f.values)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_simpson_exact_for_cubics(self):
        f = density_from_callable(Axis(0.0, 1.0, 11), lambda x: x ** 3 + 1.0)
        assert integrate(f) == pytest.approx(0.25 + 1.0, abs=1e-14)

    def test_refinement_order(self):
        # |I_h - I_{h/2}| should drop by ~16x (O(h^4)) for a smooth integrand
        # with nonzero boundary derivatives
        vals = []
        for count in (11, 21, 41):
            f = density_from_callable(Axis(0.0, 1.0, count), lambda x: np.exp(x))
            vals.append(integrate(f))
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1 / 8.0
        assert vals[2] == pytest.approx(np.e - 1.0, rel=1e-8)

    def test_rejects_non_finite_with_location(self):
        f = density_from_callable(Axis(0.0, 1.0, 11), lambda x: np.ones_like(x))
        bad = f.values.copy()
        bad[3] = np.inf
        with pytest.raises(ValueError, match=r"node index \(3,\)"):
            integrate(f, bad)

    def test_non_finite_error_is_typed(self):
        ax = Axis(0.0, 1.0, 11)
        with pytest.raises(NonFiniteError, match=r"non-finite value nan at node index \(4,\)"):
            GridDensity(ax, np.where(np.arange(11) == 4, np.nan, 1.0))
        assert issubclass(NonFiniteError, ValueError)

    def test_integrand_shape_mismatch(self):
        f = density_from_callable(Axis(0.0, 1.0, 11), lambda x: np.ones_like(x))
        with pytest.raises(ValueError, match="shape"):
            integrate(f, np.ones(7))

    def test_2d_radial_weights(self):
        # Simpson times 2 pi r: int over the unit disc of |x|^2 is 2 pi / 4,
        # and r^2 r is a cubic, so the rule is exact
        f = GridDensity(Axis(0.0, 1.0, 41), np.ones(41), 2)
        r = f.axis.nodes()
        assert integrate(f, r * r) == pytest.approx(np.pi / 2.0, abs=1e-14)


class TestRadial:
    def test_sphere_surfaces(self):
        assert sphere_surface(1) == pytest.approx(2.0)
        assert sphere_surface(2) == pytest.approx(2 * np.pi)
        assert sphere_surface(3) == pytest.approx(4 * np.pi)

    def test_sphere_surfaces_keep_the_gamma_formula_bits(self):
        # n = 1 returns 2.0 without scipy; the formula gives those bits too
        from scipy.special import gamma

        for n in range(1, 6):
            assert sphere_surface(n) == float(2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0))

    def test_radial_gaussian_mass_3d(self):
        r = Axis(0.0, 12.0, 4001)
        vals = np.exp(-r.nodes() ** 2 / 2.0) / (2 * np.pi) ** 1.5
        assert integrate(GridDensity(r, vals, 3)) == pytest.approx(1.0, abs=1e-8)

    def test_radial_axis_must_start_at_zero(self):
        for lo in (-1.0, 0.5):
            with pytest.raises(ValueError, match="r = 0"):
                GridDensity(Axis(lo, 2.0, 11), np.ones(11), 2)
        with pytest.raises(ValueError, match="dim"):
            GridDensity(Axis(0.0, 2.0, 11), np.ones(11), 0)


class TestGradient:
    def test_linear_ramp(self):
        f = density_from_callable(Axis(0.0, 1.0, 101), lambda x: x)
        g = gradient(f)
        assert np.allclose(g[1:], 1.0, atol=1e-12)

    def test_gaussian_derivative_at_one(self):
        ax = Axis(-6.0, 6.0, 2401)
        f = density_from_callable(ax, lambda x: np.exp(-x * x / 2.0))
        g = gradient(f)
        i = int(np.argmin(np.abs(ax.nodes() - 1.0)))
        # analytic derivative oracle, O(h^2) accuracy
        assert g[i] == pytest.approx(-np.exp(-0.5), abs=5 * ax.step ** 2)

    def test_2d_product_gaussian_at_origin(self):
        # exp(-|x|^2 / 2) on R^2 as a radial density: df/dr = -r f, and the
        # one-sided value at r = 0 is an O(h) stand-in for 0 that the
        # r^(n-1) weight removes from every integral
        ax = Axis(0.0, 5.0, 201)
        f = GridDensity(ax, np.exp(-ax.nodes() ** 2 / 2.0), 2)
        g = gradient(f)
        r = ax.nodes()
        assert abs(g[0]) < ax.step
        assert np.allclose(g[1:-1], -r[1:-1] * f.values[1:-1], atol=ax.step ** 2)
        assert f.weights()[0] == 0.0

    def test_even_density_has_odd_gradient(self):
        rng = np.random.default_rng(7)
        ax = Axis(-4.0, 4.0, 801)
        for _ in range(5):
            a, b = rng.uniform(0.5, 2.0, size=2)
            f = density_from_callable(ax, lambda x: np.exp(-a * x ** 2) * (1 + b * x ** 2))
            g = gradient(f)
            assert np.allclose(g, -g[::-1], atol=1e-8)

    def test_support_edge_one_sided(self):
        # compactly supported parabola: interior-side differences at the edge
        ax = Axis(-2.0, 2.0, 401)
        f = density_from_callable(ax, lambda x: np.clip(1 - x * x, 0.0, None))
        g = gradient(f)
        x = ax.nodes()
        inside = np.abs(x) < 1.0 - 2 * ax.step
        assert np.allclose(g[inside], -2 * x[inside], atol=5e-4)
        assert np.all(g[np.abs(x) > 1.0 + ax.step] == 0.0)
        edge = int(np.searchsorted(x, 1.0) - 1)  # last in-support node
        assert g[edge] == pytest.approx(-2.0 * x[edge], abs=5e-3)


# ---------------------------------------------------------------------------
# Reference: the support-edge fix as it was before it was rebuilt from the
# indices where the mask changes (kept verbatim).
# ---------------------------------------------------------------------------


def ref_fix_support_edges(v, g, mask, h, ax):
    """Replace differences straddling the support boundary by one-sided ones
    taken from the interior side (2nd order where two interior neighbours
    exist, else 1st order)."""
    v = np.moveaxis(v, ax, 0)
    g = np.moveaxis(g.copy(), ax, 0)
    m = np.moveaxis(mask, ax, 0)
    n = v.shape[0]

    def shifted(a, k, fill):
        out = np.full_like(a, fill)
        if k > 0:
            out[k:] = a[:-k]
        elif k < 0:
            out[:k] = a[-k:]
        else:
            out[...] = a
        return out

    m_prev = shifted(m, 1, False)
    m_prev2 = shifted(m, 2, False)
    m_next = shifted(m, -1, False)
    m_next2 = shifted(m, -2, False)
    v_prev = shifted(v, 1, 0.0)
    v_prev2 = shifted(v, 2, 0.0)
    v_next = shifted(v, -1, 0.0)
    v_next2 = shifted(v, -2, 0.0)

    # right edge of a support run: node in support, next node not
    right = m & ~m_next
    # exclude the domain edge itself: np.gradient already did one-sided there
    right[-1] = False
    use2 = right & m_prev & m_prev2
    use1 = right & m_prev & ~m_prev2
    g[use2] = (3.0 * v[use2] - 4.0 * v_prev[use2] + v_prev2[use2]) / (2.0 * h)
    g[use1] = (v[use1] - v_prev[use1]) / h

    left = m & ~m_prev
    left[0] = False
    use2 = left & m_next & m_next2
    use1 = left & m_next & ~m_next2
    g[use2] = (-3.0 * v[use2] + 4.0 * v_next[use2] - v_next2[use2]) / (2.0 * h)
    g[use1] = (v_next[use1] - v[use1]) / h

    # isolated support nodes and everything outside the support
    g[right & ~m_prev] = 0.0
    g[~m] = 0.0
    return np.moveaxis(g, 0, ax)


def ref_gradient(f):
    h = f.axis.step
    return ref_fix_support_edges(f.values, np.gradient(f.values, h, axis=0), f.support_mask, h, 0)


def assert_gradient_matches_reference(f):
    got, want = gradient(f), ref_gradient(f)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def barenblatt_after_evolve(m, beta, nodes, half_width):
    dp = DiffusionParams(m, beta, 1)
    f0 = barenblatt_density(dp, 1.0, Axis(-half_width, half_width, nodes))
    state, _ = evolve(DiffusionState(dp, 1.0, f0), 1.2, n_logs=3)
    return state.f


def on_nodes(values, lo=-1.0, hi=1.0):
    values = np.asarray(values, dtype=float)
    return GridDensity(Axis(lo, hi, values.size), values)


#: 1-D supports: (name, values) with the support runs named
EDGE_CASES = [
    ("touches-left-edge", [3.0, 2.0, 1.5, 1.0, 0.0, 0.0, 0.0]),
    ("touches-right-edge", [0.0, 0.0, 0.0, 1.0, 1.5, 2.0, 3.0]),
    ("touches-both-edges", [1.0, 2.0, 0.0, 0.0, 0.0, 2.0, 1.0]),
    ("one-node-run", [0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
    ("one-node-run-at-first-node", [2.0, 0.0, 0.0, 0.0, 0.0]),
    ("one-node-run-at-last-node", [0.0, 0.0, 0.0, 0.0, 2.0]),
    ("two-node-run", [0.0, 0.0, 1.0, 3.0, 0.0, 0.0, 0.0]),
    ("two-node-runs-at-both-edges", [1.0, 3.0, 0.0, 0.0, 0.0, 3.0, 1.0]),
    ("disjoint-runs", [0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 1.0, 2.0, 4.0, 0.0, 5.0, 4.0, 3.0, 1.0, 0.0]),
    ("full-support", [1.0, 2.0, 3.0, 2.0, 1.0]),
]


class TestGradientOracle:
    """gradient() against the verbatim support-edge fix it replaced."""

    @pytest.mark.parametrize("count", [501, 4001, 8001])
    @pytest.mark.parametrize("q", [0.8, 1.0, 1.5, 2.0, 3.0])
    def test_q_gaussians(self, q, count):
        assert_gradient_matches_reference(grid_density(QGaussianParams(q, 2.0, 1.0, 1), count))

    @pytest.mark.parametrize("m,beta,nodes,half_width", [
        (2.0, 2.0, 251, 3.5), (3.0, 2.0, 201, 3.0), (1.0, 3.0, 201, 3.6)])
    def test_barenblatt_after_evolve(self, m, beta, nodes, half_width):
        f = barenblatt_after_evolve(m, beta, nodes, half_width)
        if m > 1.0:
            assert not f.support_mask.all()  # edges inside the grid
        assert_gradient_matches_reference(f)

    @pytest.mark.parametrize("name,values", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_support_shapes(self, name, values):
        assert_gradient_matches_reference(on_nodes(values))
        assert_gradient_matches_reference(on_nodes(values[::-1]))

    def test_random_supports(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = 2 * int(rng.integers(1, 20)) + 1
            values = rng.random(n) * (rng.random(n) < rng.uniform(0.2, 0.9))
            assert_gradient_matches_reference(on_nodes(values))

    @pytest.mark.parametrize("p", [QGaussianParams(1.5, 2.0, 1.0, 2), QGaussianParams(2.5, 3.0, 0.7, 2),
                                   QGaussianParams(1.0, 1.5, 2.0, 2), QGaussianParams(2.0, 2.0, 1.0, 2)],
                             ids=str)
    def test_two_dimensional_q_gaussians(self, p):
        # radial: the line's stencils along r
        assert_gradient_matches_reference(grid_density(p, 201))

    def test_two_dimensional_supports(self):
        r = Axis(0.0, 5.0, 201)
        assert_gradient_matches_reference(GridDensity(r, np.exp(-r.nodes() ** 2 / 2.0), 2))
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = 2 * int(rng.integers(1, 8)) + 1
            values = rng.random(n) * (rng.random(n) < rng.uniform(0.2, 0.9))
            assert_gradient_matches_reference(GridDensity(Axis(0.0, 1.0, n), values, 2))

    def test_leaves_density_untouched(self):
        f = grid_density(QGaussianParams(2.0, 2.0, 1.0, 1), 501)
        before = f.values.tobytes()
        gradient(f)
        assert f.values.tobytes() == before


#: a node value: zero of either sign, or a positive value over many decades
NODE_VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False))


class TestGradientSlices:
    """gradient() against np.gradient and the verbatim support-edge fix,
    compared as int64 bit patterns."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(NODE_VALUES, min_size=1, max_size=40),
           step=st.floats(1e-3, 1e3))
    def test_bitwise_over_random_supports(self, values, step):
        values = values + [0.0] * (2 + (len(values) + 1) % 2)  # >= 3 nodes, odd
        values = np.array(values)
        f = GridDensity(Axis(0.0, step * (values.size - 1), values.size), values)
        with np.errstate(over="ignore", invalid="ignore"):
            got = gradient(f)
            want = ref_fix_support_edges(values, np.gradient(values, f.axis.step), f.support_mask,
                                         f.axis.step, 0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def reference_non_finite_message(ax, arr):
    """The NonFiniteError text: the first non-finite node and its abscissa."""
    i = int(np.flatnonzero(~np.isfinite(arr))[0])
    return f"non-finite value {arr[i]} at node index {(i,)}, x = {(float(ax.nodes()[i]),)}"


class TestNonFiniteNamedOnce:
    """A NaN or inf is named by node, with no warning on the way, whether it
    reaches GridDensity or integrate, on the line or radially (where the
    weight at r = 0 is 0 and 0 * inf is NaN)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("node", [0, 5, 10])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_same_error_no_warning(self, bad, node, dim):
        ax = Axis(0.0, 2.0, 11)
        arr = np.ones(11)
        arr[node] = bad
        arr[7] = -1.0  # a negative node later on must not take precedence
        message = reference_non_finite_message(ax, arr)
        f = GridDensity(ax, np.ones(11), dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as built:
                GridDensity(ax, arr, dim)
            with pytest.raises(NonFiniteError) as integrated:
                integrate(f, arr)
        for err in (built, integrated):
            assert str(err.value) == message

    @pytest.mark.parametrize("dim", [1, 2])
    def test_negative_values_named(self, dim):
        vals = np.ones(11)
        vals[3], vals[8] = -2.0, -1.0
        with pytest.raises(ValueError) as err:
            GridDensity(Axis(0.0, 1.0, 11), vals, dim)
        assert not isinstance(err.value, NonFiniteError)
        assert re.fullmatch(r"negative density value -2\.0 at node \(3,\)",
                            str(err.value))

    def test_negative_zero_is_outside_the_support(self):
        vals = np.array([1.0, -0.0, 2.0, 0.0, 1.0])
        f = GridDensity(Axis(0.0, 1.0, 5), vals)
        assert f.support_mask.tolist() == [True, False, True, False, True]
        assert np.signbit(f.values[1])

    def test_overflowing_finite_integrand_returns_inf(self):
        f = GridDensity(Axis(0.0, 10.0, 11), np.ones(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert integrate(f, np.full(11, 1e308)) == np.inf


class TestNormalize:
    def test_constant_on_0_2(self):
        f = density_from_callable(Axis(0.0, 2.0, 201), lambda x: 3.7 * np.ones_like(x))
        assert np.allclose(normalize(f).values, 0.5, atol=1e-14)

    def test_parabola_mass_and_shape(self):
        ax = Axis(-1.0, 1.0, 2001)
        f = density_from_callable(ax, lambda x: np.clip(1 - x * x, 0.0, None))
        out = normalize(f)
        assert integrate(out) == pytest.approx(1.0, abs=1e-10)
        # oracle: int (1-x^2) dx = 4/3, so the density is (3/4)(1-x^2)
        assert np.allclose(out.values, 0.75 * np.clip(1 - ax.nodes() ** 2, 0, None), atol=1e-10)

    def test_idempotent(self):
        f = gaussian_density(Axis(-8.0, 8.0, 801), sigma=1.3)
        once = normalize(f)
        twice = normalize(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_zero_mass_rejected(self):
        f = GridDensity(Axis(0.0, 1.0, 11), np.zeros(11))
        with pytest.raises(ValueError, match="mass"):
            normalize(f)


class TestGridDensity:
    def test_axis_validation(self):
        with pytest.raises(ValueError, match="odd"):
            Axis(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="lo < hi"):
            Axis(1.0, 0.0, 11)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            GridDensity(Axis(0.0, 1.0, 11), np.linspace(-0.1, 1.0, 11))

    def test_support_mask_is_positivity_set(self):
        vals = np.array([0.0, 1.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        f = GridDensity(Axis(0.0, 1.0, 11), vals)
        assert np.array_equal(f.support_mask, vals > 0)

    def test_three_dim_tensor_rejected(self):
        # dimension 3 is radial: one axis of radii, not a 5 x 5 x 5 tensor
        with pytest.raises(ValueError, match="shape"):
            GridDensity(Axis(0.0, 1.0, 5), np.ones((5, 5, 5)), 3)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.identity_rel == 1e-6 and t.inequality_slack == 1e-9
        assert Tolerances.for_pde().identity_rel == 1e-2

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerances(identity_rel=0.0)

    @pytest.mark.parametrize("key", ["identity_rel", "inequality_slack"])
    def test_nan_refused(self, key):
        with pytest.raises(ValueError, match="strictly positive"):
            Tolerances(**{key: float("nan")})


def test_weights_sum_to_volume():
    ones = np.ones(21)
    assert GridDensity(Axis(0.0, 2.0, 21), ones).weights().sum() == pytest.approx(2.0, abs=1e-13)
    # the ball of radius 2 in R^n: |S^(n-1)| 2^n / n (exact: r^(n-1) is at most cubic)
    for n in (2, 3, 4):
        w = GridDensity(Axis(0.0, 2.0, 21), ones, n).weights()
        assert w.sum() == pytest.approx(sphere_surface(n) * 2.0 ** n / n, rel=1e-13)
