"""Perturbation families: bit identity with the plain per-call evaluation,
the base-grid sample reuse, the windowed bump, the batch generator against
the hand-written loops it replaced, the trig table shared by bumps, and
the compiled bump kernel and its memo against the numpy table path."""

import copy
import functools
import math
import shutil
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher import perturb
from qfisher.acceptance import QCR_POINTS, SUITE_SEED
from qfisher.core import Axis, GridDensity, normalize
from qfisher import inequalities
from qfisher.inequalities import (
    FIT_AMPLITUDES,
    _perturbation_sweep,
    min_fisher_fixed_entropy,
    min_fisher_fixed_moment,
)
from qfisher.info_measures import entropy_power, i_fisher, moment_abs
from qfisher.perturb import (
    BUMP_TAIL,
    N_MODES,
    amplitude_ladder,
    fourier_bump,
    perturbation_batch,
    perturbed_density,
)
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
    base = normalize(GridDensity(ax, raw(ax.nodes())))
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
    return normalize(GridDensity(ax_c, values))


# ---------------------------------------------------------------------------

POINTS = tuple(QCR_POINTS) + ((1.0, 2.0),)
AMPLITUDES = tuple(float(a) for a in amplitude_ladder(5)) + tuple(float(a) for a in FIT_AMPLITUDES)


def target_for(p, constraint):
    # off the reference value, so the restoring dilation is far from 1
    if constraint == "moment":
        return 1.3 * moment_alpha(p)
    return 1.3 * closed_form_entropy_power(p)


def bump_pair(seed):
    return fourier_bump(np.random.default_rng(seed)), ref_fourier_bump(np.random.default_rng(seed))


def assert_same_density(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.axis == want.axis


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


class TestFourierBump:
    # n_modes is the reference's mode count
    @pytest.mark.parametrize("n_modes", [N_MODES])
    def test_window_values(self, n_modes):
        bump, ref_bump = fourier_bump(np.random.default_rng(11)), \
            ref_fourier_bump(np.random.default_rng(11), n_modes)
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

    @pytest.mark.parametrize("n_modes", [N_MODES])
    def test_rng_stream_after_draw(self, n_modes):
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        fourier_bump(rng)
        ref_fourier_bump(ref_rng, n_modes)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random(8).tobytes() == ref_rng.random(8).tobytes()


# ---------------------------------------------------------------------------
# Reference: the four "bumps x amplitude ladder" loops that perturbation_batch
# replaced (kept verbatim, except that where a loop computed its metric from
# a density it now collects the density).
# ---------------------------------------------------------------------------


def ref_criterion_6_loop(p, rng, n_dirs=20):
    target = moment_alpha(p)
    amps = amplitude_ladder(5)
    out = []
    for _ in range(n_dirs):
        bump = fourier_bump(rng)
        for a in amps:
            fp = perturbed_density(p, bump, float(a), "moment", target, 4001)
            out.append((float(a), fp))
    return out


def ref_criterion_7_loop(p, rng, n_dirs=10):
    target = moment_alpha(p)
    out = []
    for _ in range(n_dirs):
        bump = fourier_bump(rng)
        for a in amplitude_ladder(3):
            fp = perturbed_density(p, bump, float(a), "moment", target, 4001)
            out.append((float(a), fp))
    return out


def ref_cmd_stam_loop(p, rng, perturbations, grid_count):
    target = moment_alpha(p)
    out = []
    amps = amplitude_ladder(5)
    made = 0
    while made < int(perturbations):
        bump = fourier_bump(rng)
        for a in amps:
            if made >= int(perturbations):
                break
            fp = perturbed_density(p, bump, float(a), "moment", target,
                                   min(grid_count, 4001))
            out.append((float(a), fp))
            made += 1
    return out


def ref_perturbation_sweep(ref, constraint, target, n_perturb, seed, grid_count):
    n_amps = min(5, n_perturb)
    n_dirs = max(1, int(np.ceil(n_perturb / n_amps)))
    amps = amplitude_ladder(n_amps)
    rng = np.random.default_rng(seed)
    bumps = [fourier_bump(rng) for _ in range(n_dirs)]
    rows = []  # (amplitude, dir_index, density)
    made = 0
    for bi, bump in enumerate(bumps):
        for a in amps:
            if made >= n_perturb:
                break
            fp = perturbed_density(ref, bump, float(a), constraint, target, grid_count)
            rows.append((float(a), bi, fp))
            made += 1
    fit_rows = []
    for bump in bumps:
        for a in FIT_AMPLITUDES:
            fp = perturbed_density(ref, bump, float(a), constraint, target, grid_count)
            fit_rows.append((float(a), fp))
    return amps, rows, fit_rows, rng


# ---------------------------------------------------------------------------

COUNTS = (1, 3, 5, 7, 12, 20)
P_QCR = QGaussianParams(*QCR_POINTS[0], 1.0, 1)


def assert_same_batch(got, want):
    """got: (direction, amplitude, density) items; want: (amplitude, density)."""
    assert len(got) == len(want)
    for (_, a, fp), (ref_a, ref_fp) in zip(got, want):
        assert a == ref_a and type(a) is float
        assert_same_density(fp, ref_fp)


def assert_same_stream(rng, ref_rng):
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPerturbationBatchOracle:
    @pytest.mark.parametrize("n_dirs", COUNTS)
    def test_criterion_6_shape(self, n_dirs):
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = list(perturbation_batch(P_QCR, rng, 5 * n_dirs, 5, "moment", moment_alpha(P_QCR), 4001))
        assert_same_batch(got, ref_criterion_6_loop(P_QCR, ref_rng, n_dirs))
        assert_same_stream(rng, ref_rng)

    @pytest.mark.parametrize("n_dirs", COUNTS)
    def test_criterion_7_shape(self, n_dirs):
        # both parameter points draw from one generator, one after the other
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for q, beta in ((1.0, 2.0), (2.0, 2.0)):
            p = QGaussianParams(q, beta / (beta - 1.0), 1.0, 1)
            got = list(perturbation_batch(p, rng, 3 * n_dirs, 3, "moment", moment_alpha(p), 4001))
            assert_same_batch(got, ref_criterion_7_loop(p, ref_rng, n_dirs))
            assert_same_stream(rng, ref_rng)

    @pytest.mark.parametrize("grid_count", [2001, 8001])
    @pytest.mark.parametrize("count", COUNTS + (13,))
    def test_cmd_stam_shape(self, count, grid_count):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
        got = list(perturbation_batch(p, rng, count, 5, "moment", moment_alpha(p),
                                      min(grid_count, 4001)))
        assert_same_batch(got, ref_cmd_stam_loop(p, ref_rng, count, grid_count))
        assert_same_stream(rng, ref_rng)

    @pytest.mark.parametrize("constraint", ["moment", "entropy_power"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_sweep_shape(self, count, constraint):
        p = QGaussianParams(1.5, 2.0, 1.0, 1)
        target = target_for(p, constraint)
        rng = np.random.default_rng(80 + count)
        got = list(perturbation_batch(p, rng, count, min(5, count), constraint, target, 1001,
                                      extra=FIT_AMPLITUDES))
        _, rows, fit_rows, ref_rng = ref_perturbation_sweep(p, constraint, target, count,
                                                         80 + count, 1001)
        # the generator's order: each direction's ladder rows, then its fit rows
        n_fit = len(FIT_AMPLITUDES)
        want = []
        for bi in range(len(fit_rows) // n_fit):
            want += [(bi, a, fp) for a, d, fp in rows if d == bi]
            want += [(bi, a, fp) for a, fp in fit_rows[bi * n_fit:(bi + 1) * n_fit]]
        assert [d for d, _, _ in got] == [d for d, _, _ in want]
        assert_same_batch(got, [(a, fp) for _, a, fp in want])
        assert_same_stream(rng, ref_rng)

    @pytest.mark.parametrize("constraint", ["moment", "entropy_power"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_sweep_rows(self, count, constraint):
        q, alpha = 2.0, 3.0
        beta = alpha / (alpha - 1.0)
        p = QGaussianParams(q, alpha, 1.0, 1)
        target = target_for(p, constraint)
        _, ref_rows, ref_fit_rows, _ = ref_perturbation_sweep(p, constraint, target, count,
                                                           90 + count, 1001)
        values, fit = _perturbation_sweep(p, constraint, target, beta, count, 90 + count, 1001)
        assert values == [i_fisher(fp, q, beta) for _, _, fp in ref_rows]
        # row k holds direction k's I at each of FIT_AMPLITUDES
        want = [i_fisher(fp, q, beta) for _, fp in ref_fit_rows]
        assert fit.shape == (len(want) // len(FIT_AMPLITUDES), len(FIT_AMPLITUDES))
        assert fit.ravel().tolist() == want


class TestBatchBaseSampleReuse:
    def test_sweep_evaluates_each_bump_once_on_the_base_grid(self, monkeypatch):
        drawn = []

        def counting_bump(rng):
            bump = fourier_bump(rng)
            calls = [0]

            def counted(u):
                calls[0] += 1
                return bump(u)

            drawn.append(calls)
            return counted

        # also where a module binds fourier_bump itself, so that a loop
        # outside perturb is counted the same way
        monkeypatch.setattr(perturb, "fourier_bump", counting_bump)
        monkeypatch.setattr(inequalities, "fourier_bump", counting_bump, raising=False)
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        rep = min_fisher_fixed_moment(2.0, 2.0, moment_alpha(p), perturbation_count=50,
                                      seed=3, grid_count=1001)
        assert rep.extras["perturbations"] == 50
        assert len(drawn) == 10
        # 5 ladder and 4 fit amplitudes on the dilated grid, once on the base grid
        per_density = 5 + len(FIT_AMPLITUDES)
        assert [c[0] for c in drawn] == [1 + per_density] * 10


class TestBatchProperty:
    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 40), n_levels=st.integers(1, 5), n_extra=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_yields_count_ladder_items(self, count, n_levels, n_extra, seed):
        p = QGaussianParams(2.0, 2.0, 1.0, 1)
        extra = FIT_AMPLITUDES[:n_extra]
        rng = np.random.default_rng(seed)
        got = list(perturbation_batch(p, rng, count, n_levels, "moment", moment_alpha(p), 201,
                                      extra=extra))
        n_dirs = math.ceil(count / n_levels)
        ladder = [float(a) for a in amplitude_ladder(n_levels)]
        want = []
        for d in range(n_dirs):
            want += [(d, a) for a in ladder[:count - d * n_levels]]
            want += [(d, float(a)) for a in extra]
        assert [(d, a) for d, a, _ in got] == want
        assert len(got) - n_dirs * n_extra == count
        # one fourier_bump draw per direction, nothing else from the stream
        ref_rng = np.random.default_rng(seed)
        for _ in range(n_dirs):
            ref_rng.uniform(-1.0, 1.0, size=(2, N_MODES))
        assert_same_stream(rng, ref_rng)


# ---------------------------------------------------------------------------
# Reference: fourier_bump as it was before its trig tables were shared by all
# bumps (kept verbatim; windowed, tabulated afresh on every call).
# ---------------------------------------------------------------------------


def ref_untabled_fourier_bump(rng: np.random.Generator, n_modes: int = N_MODES):
    """Random smooth bump on [-1, 1]: the first n_modes cos and sin modes
    under a cos^2 window vanishing at the ends, normalized to max |b| = 1."""
    coef = rng.uniform(-1.0, 1.0, size=(2, n_modes))
    freqs = np.arange(1, n_modes + 1) * np.pi

    def raw(u):
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) < 1.0
        u_in = u[inside]
        phase = np.multiply.outer(freqs, u_in)
        cos, sin = np.cos(phase), np.sin(phase)
        acc = np.zeros_like(u_in)
        # summed mode by mode in order; a matrix product would round
        # differently in the last bits
        for j in range(n_modes):
            acc += coef[0, j] * cos[j] + coef[1, j] * sin[j]
        out = np.zeros_like(u)
        out[inside] = np.cos(np.pi * u_in / 2.0) ** 2 * acc
        return out

    probe = np.linspace(-1.0, 1.0, 4001)
    peak = float(np.max(np.abs(raw(probe))))
    if peak <= 0:  # pragma: no cover - measure-zero draw
        return lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return lambda u: raw(u) / peak


# ---------------------------------------------------------------------------


def clear_bump_caches():
    perturb._MEMO.clear()
    perturb._base_grid.cache_clear()
    perturb._base_samples.cache_clear()


def assert_one_memo_at_most():
    """At most one base grid has a memo slot, and a made memo has
    MEMO_SLOTS rows of 2 N_MODES + 1 doubles at each of its n nodes."""
    assert len(perturb._MEMO) <= 1
    for n, memo in perturb._MEMO.items():
        if memo is not None:
            assert memo.keys.shape == (n, perturb.MEMO_SLOTS)
            assert memo.rows.shape == (n, perturb.MEMO_SLOTS, 2 * N_MODES + 1)


def recording_memos(monkeypatch):
    """Weak references to every memo made from now on, in order."""
    made = []
    memo_cls = perturb._Memo

    def make(n):
        memo = memo_cls(n)
        made.append(weakref.ref(memo))
        return memo

    monkeypatch.setattr(perturb, "_Memo", make)
    return made


class CheckedDraws:
    """A stand-in for perturb.fourier_bump that draws the real bump and the
    reference from one rng state, checks the stream and the peak-probe
    values, and hands out a bump that checks every evaluation bytewise
    against the reference (through a functools.wraps wrapper if `wrap`)."""

    def __init__(self, wrap):
        self.wrap = wrap
        self.kinds = []  # per evaluation: "probe", "base" or "dilated"

    def __call__(self, rng):
        ref_rng = copy.deepcopy(rng)
        bump = fourier_bump(rng)
        ref = ref_untabled_fourier_bump(ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        probe = perturb._probe_table().u
        assert bump(probe).tobytes() == ref(np.linspace(-1.0, 1.0, 4001)).tobytes()
        self.kinds.append("probe")

        def checked(u):
            # the base grid's abscissae are the one read-only array a batch
            # hands its bump; each dilated grid is made afresh
            self.kinds.append("dilated" if np.asarray(u).flags.writeable else "base")
            got = bump(u)
            assert got.tobytes() == ref(np.array(u)).tobytes()
            assert_one_memo_at_most()
            return got

        return self.wrap(checked) if self.wrap else checked


def run_criterion_6(rng):
    return list(perturbation_batch(P_QCR, rng, 100, 5, "moment", moment_alpha(P_QCR), 4001))


def run_criterion_7(rng):
    out = []
    for q, beta in ((1.0, 2.0), (2.0, 2.0)):
        p = QGaussianParams(q, beta / (beta - 1.0), 1.0, 1)
        out += perturbation_batch(p, rng, 30, 3, "moment", moment_alpha(p), 4001)
    return out


def run_criterion_8(q, alpha, constraint):
    p = QGaussianParams(q, alpha, 1.0, 1)
    if constraint == "moment":
        return min_fisher_fixed_moment(q, alpha, moment_alpha(p), 1, 50, 80, 4001)
    beta = alpha / (alpha - 1.0)
    return min_fisher_fixed_entropy(q, beta, closed_form_entropy_power(p), 1, 50, 90, 4001)


CRITERION_8 = [(q, alpha, c) for q, alpha in QCR_POINTS for c in ("moment", "entropy")]


class TestBumpTables:
    @pytest.mark.parametrize("wrap", [None, wrapped], ids=["direct", "wrapped"])
    @pytest.mark.parametrize("criterion", [6, 7])
    def test_batch_bytes_match_reference(self, criterion, wrap, monkeypatch):
        draws = CheckedDraws(wrap)
        monkeypatch.setattr(perturb, "fourier_bump", draws)
        rng = np.random.default_rng(criterion)
        (run_criterion_6 if criterion == 6 else run_criterion_7)(rng)
        n_dirs, n_levels = (20, 5) if criterion == 6 else (20, 3)
        # per bump: the peak probe, one base-grid evaluation, one per amplitude
        assert draws.kinds.count("probe") == n_dirs
        assert draws.kinds.count("base") == n_dirs
        assert draws.kinds.count("dilated") == n_dirs * n_levels

    @pytest.mark.parametrize("wrap", [None, wrapped], ids=["direct", "wrapped"])
    @pytest.mark.parametrize("q,alpha,constraint", CRITERION_8)
    def test_criterion_8_bytes_match_reference(self, q, alpha, constraint, wrap, monkeypatch):
        draws = CheckedDraws(wrap)
        monkeypatch.setattr(perturb, "fourier_bump", draws)
        rep = run_criterion_8(q, alpha, constraint)
        assert rep.extras["perturbations"] == 50
        assert draws.kinds.count("base") == 10
        assert draws.kinds.count("dilated") == 10 * (5 + len(FIT_AMPLITUDES))

    def test_cached_arrays_read_only(self):
        clear_bump_caches()
        run_criterion_6(np.random.default_rng(6))
        for name, a in perturb._probe_table()._asdict().items():
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]
        for a in perturb._base_grid(P_QCR, 4001)[2:]:
            assert not a.flags.writeable

    def test_only_probe_and_one_base_grid_kept(self, monkeypatch):
        clear_bump_caches()
        made = recording_memos(monkeypatch)
        dilated, base = [], []

        def recording(rng):
            bump = fourier_bump(rng)

            def call(u):
                (dilated if u.flags.writeable else base).append(u)
                return bump(u)

            return call

        points = [QGaussianParams(q, alpha, 1.0, 1) for q, alpha in QCR_POINTS]
        for p in points:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(perturb, "fourier_bump", recording)
                list(perturbation_batch(p, np.random.default_rng(1), 10, 5, "moment",
                                        moment_alpha(p), 2001, extra=FIT_AMPLITUDES[:1]))
            assert perturb._base_grid.cache_info().currsize == 1
            # the memo of this base grid only; the one before is gone
            assert list(perturb._MEMO) == [2001]
            assert sum(ref() is not None for ref in made) <= 1
            assert_one_memo_at_most()
            r_eff, ax, _, u = perturb._base_grid(p, 2001)
            assert base[-1] is u
            assert u.tobytes() == (ax.nodes() / r_eff).tobytes()
            assert perturb._probe_table().u.tobytes() == np.linspace(-1.0, 1.0, 4001).tobytes()
        assert len(made) == (len(points) if perturb._CHOICE[0] is not None else 0)
        assert len(base) == len(points) * 2
        assert len(dilated) == len(points) * 2 * (5 + 1)
        assert not any(d is b for d in dilated for b in base)

    @pytest.mark.parametrize("criterion", [6, 7])
    def test_one_base_table_per_reference_and_count(self, criterion, monkeypatch):
        clear_bump_caches()
        made = recording_memos(monkeypatch)
        (run_criterion_6 if criterion == 6 else run_criterion_7)(np.random.default_rng(criterion))
        # criterion 6 has one (p, count), criterion 7 two, one after the
        # other; the numpy path makes no memo
        n_grids = (1 if criterion == 6 else 2) if perturb._CHOICE[0] is not None else 0
        assert len(made) == n_grids
        assert [ref() is not None for ref in made] == [False] * (n_grids - 1) + [True] * (n_grids > 0)
        assert_one_memo_at_most()


class TestBumpTablesNumpyPath(TestBumpTables):
    """TestBumpTables with every untabled grid on the numpy table path."""

    @pytest.fixture(autouse=True)
    def numpy_path(self, monkeypatch):
        monkeypatch.setattr(perturb, "_CHOICE", [None])


def selected_kernel():
    """The bump kernel this process selected, after one dilated-grid
    evaluation has made the choice."""
    fourier_bump(np.random.default_rng(0))(np.linspace(-1.0, 1.0, 11) / 1.1)
    return perturb._CHOICE[0]


class TestCompiledBump:
    def test_selected_when_cc_works(self, monkeypatch):
        # a silent fallback to numpy would pass every oracle test with the gain gone
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert selected_kernel() is not None
        monkeypatch.setattr(perturb, "_CHOICE", [])  # choose again, on another draw
        assert selected_kernel() is not None and len(perturb._CHOICE) == 1

    def test_mismatch_on_probe_selects_numpy(self, monkeypatch):
        monkeypatch.setattr(perturb, "_CHOICE", [])
        mode_sum = perturb._mode_sum
        monkeypatch.setattr(perturb, "_mode_sum", lambda coef, table: mode_sum(coef, table) * 2.0)
        assert selected_kernel() is None

    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_match_numpy_path(self, seed, monkeypatch):
        kernel = selected_kernel()
        if kernel is None:
            pytest.skip("the compiled bump is unavailable")
        rng = np.random.default_rng(seed)
        bump = fourier_bump(rng)
        edges = [-1.0, 1.0, -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                 np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), np.nextafter(1.0, 2.0)]
        u = np.concatenate([np.linspace(-1.05, 1.05, 4001) / rng.uniform(0.7, 1.4),
                            rng.uniform(-1.5, 1.5, 2000), edges])
        rng.shuffle(u)
        square = u[:6000].reshape(60, 100)
        cases = [u, u[::3], u[::-2], square, np.asfortranarray(square), np.array(u[17]),
                 np.array(-0.0), np.array(np.nan), np.array(0.5)]
        for x in cases:
            monkeypatch.setattr(perturb, "_CHOICE", [kernel])
            got = bump(x)
            monkeypatch.setattr(perturb, "_CHOICE", [None])
            want = bump(x)
            assert np.shape(got) == np.shape(want) == np.shape(x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert not np.signbit(np.asarray(got)[~(np.abs(x) < 1.0)]).any()


class FifoModel:
    """The memo's bookkeeping in Python: at each node the bit patterns its
    slots hold and the slot the next new abscissa fills, and the lookup and
    miss counts.  An abscissa outside the window is never looked up."""

    def __init__(self, n):
        self.keys = [[None] * perturb.MEMO_SLOTS for _ in range(n)]
        self.cursor = [0] * n
        self.lookups = self.misses = 0

    def run(self, u):
        u = u.ravel()
        for i, (x, bits) in enumerate(zip(u.tolist(), u.view(np.uint64).tolist())):
            if not abs(x) < 1.0:
                continue
            self.lookups += 1
            if bits not in self.keys[i]:
                self.misses += 1
                self.keys[i][self.cursor[i]] = bits
                # slot 0 keeps the node's first abscissa
                self.cursor[i] = max((self.cursor[i] + 1) % perturb.MEMO_SLOTS, 1)


class TestBumpMemo:
    N = 64

    @pytest.fixture(autouse=True)
    def memo(self, monkeypatch):
        """A fresh memo slot for arrays of N abscissae, as a base grid of N
        nodes leaves it, with the compiled kernel selected."""
        kernel = selected_kernel()
        if kernel is None:
            pytest.skip("the compiled bump is unavailable")
        monkeypatch.setattr(perturb, "_MEMO", {self.N: None})
        self.kernel, self.monkeypatch = kernel, monkeypatch
        self.model = FifoModel(self.N)

    def checked(self, bump, u):
        """bump(u) through the memo, checked byte for byte against the numpy
        table path, and the memo's keys and counts against the model."""
        got = bump(u)
        self.monkeypatch.setattr(perturb, "_CHOICE", [None])
        want = bump(u)
        self.monkeypatch.setattr(perturb, "_CHOICE", [self.kernel])
        assert got.tobytes() == want.tobytes()
        if u.size == self.N:
            self.model.run(u)
        memo = perturb._MEMO[self.N]
        if memo is not None:
            assert perturb.bump_memo_counts() == (self.model.lookups, self.model.misses)
            keys = [[None if k >> 52 == 0x7FF else k for k in row]
                    for row in memo.keys.view(np.uint64).tolist()]
            assert keys == self.model.keys
            assert memo.cursor.tolist() == self.model.cursor
        return got

    def test_eviction_keeps_bits(self):
        rng = np.random.default_rng(1)
        bump = fourier_bump(rng)
        base = np.linspace(-0.99, 0.99, self.N)
        # 3 MEMO_SLOTS distinct abscissae a few ulps apart at every node,
        # visited forwards, backwards and at random, so slots are evicted
        # while others still hit
        ulps = list(range(3 * perturb.MEMO_SLOTS))
        for k in ulps + ulps[::-1] + rng.permutation(len(ulps) * 2).tolist():
            self.checked(bump, base + k % len(ulps) * np.spacing(base))
        assert 0 < self.model.misses < self.model.lookups

    def test_edge_values(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, -np.nan,
                 np.inf, -np.inf, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
                 np.nextafter(1.0, 2.0), 0.5]
        u = np.resize(np.array(edges), self.N)
        bump = fourier_bump(np.random.default_rng(2))
        for x in (u, u, u[::-1].copy(), u):
            out = self.checked(bump, x)
            assert not np.signbit(out[~(np.abs(x) < 1.0)]).any()
        # -0.0 and +0.0 are two keys; NaN, inf and |u| >= 1 are never looked up
        assert self.model.lookups == 4 * int(np.sum(np.abs(u) < 1.0))

    def test_other_lengths_bypass_memo(self):
        bump = fourier_bump(np.random.default_rng(3))
        u = np.linspace(-1.05, 1.05, self.N)
        self.checked(bump, u)
        for n in (self.N - 1, self.N + 1, 2 * self.N):
            self.checked(bump, np.linspace(-0.5, 0.5, n))
        square = np.resize(u, (8, self.N // 8))
        self.checked(bump, square)  # N abscissae in another shape use the memo
        assert perturb.bump_memo_counts() == (self.model.lookups, self.model.misses)

    def test_warm_cold_and_repeated_batches_agree(self):
        rng = np.random.default_rng(4)
        bumps = [fourier_bump(rng) for _ in range(3)]
        base = np.linspace(-1.02, 1.02, self.N)
        batch = [base / c for c in (1.0, 1.0 + 2e-16, 0.97, 1.03)]
        other = [base / c for c in rng.uniform(0.5, 1.5, 2 * perturb.MEMO_SLOTS)]

        def run():
            return [self.checked(b, u).tobytes() for b in bumps for u in batch]

        cold = run()
        again = run()
        for u in other:  # fills every slot with other abscissae
            self.checked(bumps[0], u)
        warm = run()
        assert cold == again == warm


def test_memo_counts_of_a_criterion_8_run():
    # (q, alpha) = (2, 2) as criterion 8 runs it, from an empty memo
    if selected_kernel() is None:
        pytest.skip("the compiled bump is unavailable")
    p = QGaussianParams(2.0, 2.0, 1.0, 1)
    for _ in range(2):  # the counts repeat exactly
        clear_bump_caches()
        rep = min_fisher_fixed_moment(2.0, 2.0, moment_alpha(p), 1, perturbation_count=50,
                                      seed=SUITE_SEED + 80, grid_count=4001)
        assert rep.extras["perturbations"] == 50
        lookups, misses = perturb.bump_memo_counts()
        # 10 bumps, each on the base grid and on 9 dilated grids, 3809
        # abscissae inside the window on each
        assert (lookups, misses) == (380900, 102000) and lookups == 10 * 10 * 3809
        assert misses / lookups < 0.349  # a memo of 4 slots a node missed this often
