"""Perturbation families: bit identity with the plain per-call evaluation,
the base-grid sample reuse, and the windowed bump."""

import functools

import numpy as np
import pytest

from qfisher import perturb
from qfisher.acceptance import QCR_POINTS
from qfisher.core import Axis, GridDensity, normalize
from qfisher.inequalities import FIT_AMPLITUDES
from qfisher.info_measures import entropy_power, moment_abs
from qfisher.perturb import BUMP_TAIL, N_MODES, amplitude_ladder, fourier_bump, perturbed_density
from qfisher.qgaussian import (
    QGaussianParams,
    closed_form_entropy_power,
    moment_alpha,
    pdf,
    support_radius,
    tail_radius,
)

# ---------------------------------------------------------------------------
# Reference: the per-call evaluation as it was before the base-grid samples
# were reused and the bump was restricted to its window (kept verbatim).
# ---------------------------------------------------------------------------


def ref_fourier_bump(rng, n_modes=N_MODES):
    coef = rng.uniform(-1.0, 1.0, size=(2, n_modes))

    def raw(u):
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) < 1.0
        acc = np.zeros_like(u)
        for j in range(1, n_modes + 1):
            acc += coef[0, j - 1] * np.cos(j * np.pi * u) + coef[1, j - 1] * np.sin(j * np.pi * u)
        window = np.where(inside, np.cos(np.pi * u / 2.0) ** 2, 0.0)
        return window * acc

    probe = np.linspace(-1.0, 1.0, 4001)
    peak = float(np.max(np.abs(raw(probe))))
    if peak <= 0:  # pragma: no cover - measure-zero draw
        return lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return lambda u: raw(u) / peak


def ref_perturbed_density(p, bump, amplitude, constraint, target, count=8001):
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if p.dim != 1:
        raise ValueError("perturbation families are 1-D")
    r_eff = support_radius(p) if p.q > 1 else tail_radius(p, BUMP_TAIL)
    r_grid = tail_radius(p) * 1.05 if p.q <= 1 else support_radius(p) * 1.05

    def raw(x):
        return pdf(p, x) * (1.0 + amplitude * bump(x / r_eff))

    ax = Axis(-r_grid, r_grid, count)
    base = normalize(GridDensity((ax,), raw(ax.nodes())))
    if constraint == "moment":
        current = moment_abs(base, p.alpha)
        c = (target / current) ** (1.0 / p.alpha)
    elif constraint == "entropy_power":
        current = entropy_power(base, p.q)
        c = np.sqrt(target / current)
    else:
        raise ValueError(f"unknown constraint {constraint!r}")
    ax_c = Axis(ax.lo * c, ax.hi * c, count)
    values = raw(ax_c.nodes() / c) / c
    return normalize(GridDensity((ax_c,), values))


# ---------------------------------------------------------------------------

POINTS = tuple(QCR_POINTS) + ((1.0, 2.0),)
AMPLITUDES = tuple(float(a) for a in amplitude_ladder(5)) + tuple(float(a) for a in FIT_AMPLITUDES)


def target_for(p, constraint):
    # off the reference value, so the restoring dilation is far from 1
    if constraint == "moment":
        return 1.3 * moment_alpha(p)
    return 1.3 * closed_form_entropy_power(p)


def bump_pair(seed, n_modes=N_MODES):
    new = fourier_bump(np.random.default_rng(seed), n_modes)
    ref = ref_fourier_bump(np.random.default_rng(seed), n_modes)
    return new, ref


def assert_same_density(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert [(a.lo, a.hi, a.count) for a in got.axes] == [(a.lo, a.hi, a.count) for a in want.axes]


def wrapped(fn):
    """A new callable around `fn`, built the way a call tracer wraps one."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        return fn(*args, **kwargs)
    return call


class TestPerturbedDensityOracle:
    @pytest.mark.parametrize("count", [2001, 4001])
    @pytest.mark.parametrize("constraint", ["moment", "entropy_power"])
    @pytest.mark.parametrize("q,alpha", POINTS)
    def test_ladder_bit_identical(self, q, alpha, constraint, count):
        p = QGaussianParams(q, alpha, 1.0, 1)
        target = target_for(p, constraint)
        bump, ref_bump = bump_pair(int(10 * q + alpha))
        for a in AMPLITUDES:
            assert_same_density(perturbed_density(p, bump, a, constraint, target, count),
                                ref_perturbed_density(p, ref_bump, a, constraint, target, count))

    def test_interleaved_bumps(self):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        target = target_for(p, "moment")
        a_new, a_ref = bump_pair(1)
        b_new, b_ref = bump_pair(2)
        for new, ref, amp in ((a_new, a_ref, 0.05), (b_new, b_ref, 0.05), (a_new, a_ref, 0.1),
                              (a_new, a_ref, 0.05)):
            assert_same_density(perturbed_density(p, new, amp, "moment", target, 2001),
                                ref_perturbed_density(p, ref, amp, "moment", target, 2001))

    def test_one_bump_under_two_references(self):
        p1 = QGaussianParams(2.0, 2.0, 1.0, 1)
        p2 = QGaussianParams(1.5, 2.0, 1.0, 1)
        bump, ref_bump = bump_pair(3)
        for p in (p1, p2, p1):
            target = target_for(p, "entropy_power")
            assert_same_density(perturbed_density(p, bump, 0.1, "entropy_power", target, 2001),
                                ref_perturbed_density(p, ref_bump, 0.1, "entropy_power", target, 2001))

    def test_same_bump_two_counts(self):
        p = QGaussianParams(1.0, 2.0, 1.0, 1)
        target = target_for(p, "moment")
        bump, ref_bump = bump_pair(4)
        for count in (2001, 4001, 2001):
            assert_same_density(perturbed_density(p, bump, 0.1, "moment", target, count),
                                ref_perturbed_density(p, ref_bump, 0.1, "moment", target, count))

    def test_wrapped_bump(self):
        p = QGaussianParams(2.0, 3.0, 1.0, 1)
        target = target_for(p, "moment")
        bump, ref_bump = bump_pair(5)
        traced = wrapped(bump)
        for a in AMPLITUDES:
            assert_same_density(perturbed_density(p, traced, a, "moment", target, 2001),
                                ref_perturbed_density(p, ref_bump, a, "moment", target, 2001))
        # a fresh wrapper of the same bump is its own cache key, same bits
        assert_same_density(perturbed_density(p, wrapped(bump), 0.1, "moment", target, 2001),
                            ref_perturbed_density(p, ref_bump, 0.1, "moment", target, 2001))


class TestBaseSampleReuse:
    def test_bump_evaluated_once_per_base_grid(self):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        bump, _ = bump_pair(6)
        calls = []

        def counted(u):
            calls.append(np.shape(u))
            return bump(u)

        for a in amplitude_ladder(5):
            perturbed_density(p, counted, float(a), "moment", moment_alpha(p), 2001)
        # one base-grid evaluation plus one dilated-grid evaluation per amplitude
        assert len(calls) == 1 + 5

    def test_result_never_aliases_cached_samples(self):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        target = target_for(p, "moment")
        bump, ref_bump = bump_pair(7)
        fp = perturbed_density(p, bump, 0.1, "moment", target, 2001)
        _, _, pdf_vals, bump_vals = perturb._base_samples(p, bump, 2001)
        assert not pdf_vals.flags.writeable and not bump_vals.flags.writeable
        assert not np.shares_memory(fp.values, pdf_vals)
        assert not np.shares_memory(fp.values, bump_vals)
        fp.values[:] = 0.0  # a caller scribbling on its result changes nothing cached
        assert_same_density(perturbed_density(p, bump, 0.2, "moment", target, 2001),
                            ref_perturbed_density(p, ref_bump, 0.2, "moment", target, 2001))

    def test_caller_bump_output_left_writable(self):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        held = []

        def keeps_output(u):
            out = np.zeros_like(u)
            held.append(out)
            return out

        perturbed_density(p, keeps_output, 0.1, "moment", moment_alpha(p), 2001)
        assert all(a.flags.writeable for a in held)

    def test_rejects_two_dimensional_reference(self):
        bump, _ = bump_pair(8)
        with pytest.raises(ValueError, match="1-D"):
            perturbed_density(QGaussianParams(2.0, 2.0, 1.0, 2), bump, 0.1, "moment", 0.2)


class TestFourierBump:
    @pytest.mark.parametrize("n_modes", [1, 3, N_MODES])
    def test_window_values(self, n_modes):
        bump, ref_bump = bump_pair(11, n_modes)
        u = np.concatenate([np.linspace(-1.5, 1.5, 3001), [-1.0, 1.0, np.nextafter(1.0, 0.0)]])
        got, want = bump(u), ref_bump(u)
        inside = np.abs(u) < 1.0
        assert got[inside].tobytes() == want[inside].tobytes()
        assert np.all(got[~inside] == 0.0)
        assert got.shape == u.shape and got.dtype == np.float64

    def test_two_dimensional_input(self):
        bump, ref_bump = bump_pair(12)
        u = np.linspace(-1.2, 1.2, 301).reshape(7, 43)
        got, want = bump(u), ref_bump(u)
        inside = np.abs(u) < 1.0
        assert got.shape == u.shape
        assert got[inside].tobytes() == want[inside].tobytes()
        assert np.all(got[~inside] == 0.0)

    @pytest.mark.parametrize("u", [0.3, -0.75, 1.0, 1.5, np.float64(0.3), np.array(-0.2), np.array(2.0)])
    def test_scalar_and_zero_d(self, u):
        bump, ref_bump = bump_pair(13)
        got, want = bump(u), ref_bump(u)
        assert np.shape(got) == ()
        if abs(float(u)) < 1.0:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert got == 0.0

    def test_peak_normalized(self):
        bump, _ = bump_pair(14)
        assert float(np.max(np.abs(bump(np.linspace(-1.0, 1.0, 4001))))) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n_modes", [3, N_MODES])
    def test_rng_stream_after_draw(self, n_modes):
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        fourier_bump(rng, n_modes)
        ref_fourier_bump(ref_rng, n_modes)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random(8).tobytes() == ref_rng.random(8).tobytes()
