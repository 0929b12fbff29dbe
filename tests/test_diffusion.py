"""Doubly nonlinear diffusion solver and trajectory diagnostics."""

import hashlib
import math
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from qfisher import _native, acceptance, cli, diffusion, perturb
from qfisher.core import Axis, GridDensity, NonFiniteError, Tolerances, density_from_callable, integrate
from qfisher.diffusion import (
    CFL_SAFETY,
    GRAD_EPS,
    NEGATIVE_CLAMP_REL,
    DiffusionState,
    StabilityError,
    TrajectoryLog,
    debruijn_check,
    evolve,
    phi_monotonicity_check,
    trajectory_csv_rows,
)
from qfisher.info_measures import m_q, phi_fisher, tsallis_entropy
from qfisher.qgaussian import (
    DiffusionParams,
    barenblatt,
    barenblatt_density,
    barenblatt_equivalent_qgaussian,
    barenblatt_mass_constant,
    closed_form_m_q,
    closed_form_phi_fisher,
)

HEAT = DiffusionParams(1.0, 2.0, 1)
PME = DiffusionParams(2.0, 2.0, 1)
#: the (m, beta) with an exact C form: every acceptance run's
EXACT_C_FORMS = [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (2.0, 3.0)]


#: the builds of _kernels.c the oracle tests march on.  packed: the one
#: evolve loads (_native.CFLAGS), whose widest body the CPU runs: eight-wide
#: AVX-512F, else two-wide SSE2.  The others add their flags over
#: _native.CFLAGS.  pair: that SSE2 body, as a CPU without AVX-512F runs it.
#: avx2: pair with -mavx2 (CPU with AVX2), the VEX code a compiler whose
#: default target is x86-64-v3 emits, which no other build runs.  plain: the
#: two-wide body with plain C helpers
BUILD_FLAGS = {"pair": ("-DQFISHER_MAX_WIDTH=2",), "avx2": ("-mavx2", "-DQFISHER_MAX_WIDTH=2"),
               "plain": ("-U__SSE2__",)}
BUILDS = ["packed", *BUILD_FLAGS]
#: every march: the numpy one, then each build
MARCHES = ["numpy", *BUILDS]
#: each build but packed, made at its first use in this module
_LIBRARIES = {}


@pytest.fixture(params=MARCHES)
def march(request, monkeypatch, tmp_path_factory):
    """The march evolve runs, by name: numpy for every (m, beta), or a build's
    compiled march wherever (m, beta) has an exact C form.  A test with one
    subject narrows it by parametrizing march (indirect) over fewer names."""
    name = request.param
    if name == "numpy":
        library = None
    elif name == "packed":
        library = _native.library()
        if library is None:
            pytest.skip("the compiled march is unavailable: no working C compiler")
    else:
        if name == "avx2" and "avx2" not in _cpu_flags():
            pytest.skip("the CPU lacks AVX2")
        if name not in _LIBRARIES:
            _LIBRARIES[name] = _build_kernels(tmp_path_factory.mktemp(name), *BUILD_FLAGS[name])
        library = _LIBRARIES[name]
    monkeypatch.setattr(_native, "library", lambda: library)
    return name


def _cpu_flags():
    try:
        return set(re.findall(r"\w+", Path("/proc/cpuinfo").read_text()))
    except OSError:
        return set()


def _needs_cc():
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")


def _build_kernels(directory, *flags):
    """_kernels.c built into directory with _native.CFLAGS, flags and warnings
    as errors, which change no code; loaded with _native.SIGNATURES' types."""
    _needs_cc()
    out = directory / "_kernels.so"
    done = subprocess.run(["cc", *_native.CFLAGS, *flags, "-Wall", "-Wextra", "-Werror",
                           "-o", str(out), str(_native.SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return _native._load(out)


def gaussian_state(sigma=1.0, half=10.0, count=1001, t=0.0):
    ax = Axis(-half, half, count)
    f = density_from_callable(
        ax, lambda x: np.exp(-x * x / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2))
    return DiffusionState(HEAT, t, f)


class TestStep:
    def test_uniform_is_stationary(self):
        ax = Axis(0.0, 1.0, 101)
        f = density_from_callable(ax, lambda x: np.ones_like(x))
        kernel = diffusion._Kernel(PME, ax.step, f.values)
        # evolve refuses this state (it touches the boundary): march it directly
        kernel.march(0.0, 1e-4, 1e-4, 0, 100)
        assert np.array_equal(kernel.v, f.values)

    def test_heat_matches_kernel(self):
        st = gaussian_state()
        st, _ = evolve(st, 0.25, n_logs=11)
        sig2 = 1.0 + 2 * 0.25
        x = st.f.axis.nodes()
        exact = np.exp(-x ** 2 / (2 * sig2)) / np.sqrt(2 * np.pi * sig2)
        assert np.max(np.abs(st.f.values - exact)) < 1e-3

    def test_order_of_accuracy(self):
        errs = []
        for count in (401, 801):
            st = gaussian_state(count=count)
            st, _ = evolve(st, 0.1, n_logs=3)
            sig2 = 1.2
            x = st.f.axis.nodes()
            exact = np.exp(-x ** 2 / (2 * sig2)) / np.sqrt(2 * np.pi * sig2)
            errs.append(np.max(np.abs(st.f.values - exact)))
        assert errs[1] < errs[0] / 3.0  # ~O(h^2) under the coupled h, dt refinement

    def test_mass_conservation_discrete(self):
        st = gaussian_state()
        out, _ = evolve(st, 0.05, n_logs=3)
        assert out.step_count > 50
        h = st.f.axis.step
        assert abs(h * np.sum(out.f.values) - h * np.sum(st.f.values)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(form=hs.sampled_from(EXACT_C_FORMS), compiled=hs.booleans(),
           n=hs.integers(50, 200).map(lambda k: 2 * k + 1), cfl_steps=hs.integers(5, 40),
           bumps=hs.lists(hs.tuples(hs.floats(0.2, 1.0), hs.floats(0.4, 0.8), hs.floats(-1.0, 1.0)),
                          min_size=1, max_size=3))
    def test_mass_conserved_to_roundoff(self, form, compiled, n, cfl_steps, bumps):
        # A step sets x_i = fl(v_i + fl(fl(F_i+1 - F_i) dt/h)), whose exact
        # increments telescope to zero over the no-flux faces.  Each rounding
        # is at most u = eps/2 relative, so one step moves sum v by at most
        # u sum x + 2u sum |x - v| <= 5u sum v while v stays positive (a
        # smooth positive start never reaches the clamp), that is 2.5 eps
        # times the mass; pinned at 3 eps a step for the second-order terms,
        # plus eps for rounding the two exact sums h fsum(v).
        ax = Axis(-12.0, 12.0, n)
        f = density_from_callable(ax, lambda x: sum(
            a * np.exp(-(x - c) ** 2 / (2 * s * s)) for a, s, c in bumps))
        st = DiffusionState(DiffusionParams(*form, 1), 0.0, f)
        t_end = cfl_steps * _cfl_dt(st.params, ax.step, f.values)
        with pytest.MonkeyPatch.context() as patch:
            if not compiled:
                patch.setattr(_native, "library", lambda: None)
            out, _ = evolve(st, t_end, n_logs=2)
        mass = ax.step * math.fsum(f.values)
        drift = abs(ax.step * math.fsum(out.f.values) - mass)
        assert out.step_count > 0
        assert drift <= (3 * out.step_count + 1) * np.finfo(float).eps * mass

    def test_instability_detected(self, monkeypatch, march):
        st = gaussian_state(count=201)
        monkeypatch.setattr(diffusion, "CFL_SAFETY", 50.0 * CFL_SAFETY)  # 50x the stable dt
        with pytest.raises(StabilityError, match="negative|drift"):
            evolve(st, 25.0, n_logs=3)


class TestEvolve:
    def test_heat_entropy_matches_analytic(self):
        st = gaussian_state(count=2001, half=10.0)
        _, log = evolve(st, 0.4, n_logs=41)
        exact = 0.5 * np.log(2 * np.pi * np.e * (1.0 + 2 * log.times))
        assert np.max(np.abs(log.S_q - exact)) < 1e-3

    def test_pme_mq_power_law(self):
        # along the self-similar solution M_q(t) = M_q(1) t^(-n(q-1)/delta)
        C = barenblatt_mass_constant(PME)
        ax = Axis(-3.2, 3.2, 801)
        st = DiffusionState(PME, 1.0, barenblatt_density(PME, 1.0, ax, C))
        _, log = evolve(st, 2.0, n_logs=21)
        predicted = log.M_q[0] * log.times ** (-1.0 / 3.0)
        assert np.max(np.abs(log.M_q - predicted) / predicted) < 1e-3
        assert np.all(np.diff(log.M_q) < 0)

    @pytest.mark.parametrize("march", ["numpy"], indirect=True)
    def test_row_error_is_the_reference_one(self, monkeypatch, march):
        # row 0's error comes before the first step, as the reference's
        st = _subnormal_heat_state()
        with pytest.raises(NonFiniteError) as ref:
            _ref_evolve(st, 0.3, 8)
        monkeypatch.setattr(diffusion._Kernel, "march", _no_step)
        with pytest.raises(NonFiniteError) as got:
            evolve(st, 0.3, n_logs=8)
        assert str(got.value) == str(ref.value)
        assert "node index (30,)" in str(ref.value)

    def test_log_times_and_mass_columns(self):
        st = gaussian_state(count=401)
        _, log = evolve(st, 0.05, n_logs=6)
        assert np.allclose(log.times, np.linspace(0.0, 0.05, 6))
        assert np.allclose(log.mass, 1.0, atol=1e-9)


class TestDeBruijn:
    def test_heat_identity(self):
        st = gaussian_state(count=2001, half=10.0)
        _, log = evolve(st, 0.3, n_logs=61)
        reports = debruijn_check(log, HEAT, Tolerances.for_pde())
        assert all(r.passed for r in reports)
        for r in reports:
            exact = 1.0 / (1.0 + 2.0 * r.extras["t"])
            assert r.lhs == pytest.approx(exact, rel=1e-2)
            assert r.rhs == pytest.approx(exact, rel=1e-3)

    def test_pme_identity_and_rhs_forms(self):
        C = barenblatt_mass_constant(PME)
        ax = Axis(-3.2, 3.2, 801)
        st = DiffusionState(PME, 1.0, barenblatt_density(PME, 1.0, ax, C))
        _, log = evolve(st, 1.5, n_logs=41)
        reports = debruijn_check(log, PME, Tolerances.for_pde())
        assert all(r.passed for r in reports)
        for r in reports:
            assert r.extras["forms_agree"]
            assert r.rhs == pytest.approx(r.extras["rhs_mi"], rel=1e-10)


@pytest.mark.parametrize("m,beta,half", [(1.0, 3.0, 3.6), (1.5, 2.5, 4.0)])
def test_logged_columns_follow_the_closed_forms_at_beta_not_2(m, beta, half):
    # the Barenblatt from t = 1 to 2, 101 rows, on 251, 501 and 1001 nodes:
    # each row's phi and M_q against the closed forms of its q-Gaussian,
    # where phi(beta, q) is the paper's new object.  (1, 3) takes the
    # compiled march where it is built, (1.5, 2.5) the numpy one.  phi's
    # error reads 6.2e-4, 1.6e-4, 4.0e-5 at (1, 3) and 9.8e-4, 2.6e-4,
    # 6.6e-5 at (1.5, 2.5): order 2; M_q's relative error 8.4e-6 to
    # 8.2e-8 and 1.2e-5 to 8.1e-7
    dp = DiffusionParams(m, beta, 1)
    C = barenblatt_mass_constant(dp)
    steps, phi_errs, mq_errs = [], [], []
    for count in (251, 501, 1001):
        ax = Axis(-half, half, count)
        _, log = evolve(DiffusionState(dp, 1.0, barenblatt_density(dp, 1.0, ax, C)), 2.0, 101)
        exact = [barenblatt_equivalent_qgaussian(dp, C, t) for t in log.times]
        phi = np.array([closed_form_phi_fisher(g) for g in exact])
        mq = np.array([closed_form_m_q(g) for g in exact])
        steps.append(ax.step)
        phi_errs.append(np.max(np.abs(log.phi / phi - 1.0)))
        mq_errs.append(np.max(np.abs(log.M_q / mq - 1.0)))
    order = np.polyfit(np.log(steps), np.log(phi_errs), 1)[0]
    assert 1.8 <= order <= 2.2, (order, phi_errs)
    assert phi_errs[-1] < 1e-4
    assert max(mq_errs) < 2e-5 and mq_errs[-1] < 1e-6, mq_errs


class TestMonotonicity:
    def test_heat_fisher_decreases(self):
        st = gaussian_state(count=1001, half=9.0)
        _, log = evolve(st, 0.3, n_logs=31)
        rep = phi_monotonicity_check(log)
        assert rep.passed
        # classical: phi(t) = 1/(1 + 2t), strictly decreasing
        exact = 1.0 / (1.0 + 2 * log.times)
        assert np.max(np.abs(log.phi - exact)) < 1e-4

    def test_violation_reported(self):
        log = TrajectoryLog(1.0, 2.0, 1.0, np.array([0.0, 0.1, 0.2]),
                            np.array([0.0, 0.1, 0.05]),  # S dips
                            np.ones(3), np.array([1.0, 0.9, 0.8]), np.ones(3))
        rep = phi_monotonicity_check(log)
        assert not rep.passed


class TestCsvRows:
    def test_shape_and_nan_pattern(self):
        st = gaussian_state(count=401)
        _, log = evolve(st, 0.05, n_logs=6)
        reports = debruijn_check(log, HEAT)
        rows = trajectory_csv_rows(log, reports)
        assert len(rows) == 6 and len(rows[0]) == 8
        assert np.isnan(rows[0][5]) and np.isnan(rows[-1][5])
        assert not np.isnan(rows[1][5])
        # the interior dS/dt, rhs and rel_err columns are the reports' lhs, rhs and gap
        assert [row[5:] for row in rows[1:-1]] == [(r.lhs, r.rhs, r.gap) for r in reports]


def test_barenblatt_l1_tracking_short():
    C = barenblatt_mass_constant(PME)
    ax = Axis(-3.2, 3.2, 401)
    st = DiffusionState(PME, 1.0, barenblatt_density(PME, 1.0, ax, C))
    st, _ = evolve(st, 1.5, n_logs=6)
    exact = barenblatt(PME, C, ax.nodes(), 1.5)
    l1 = integrate(st.f, np.abs(st.f.values - exact))
    assert l1 < 1e-2


# --- the allocating update both kernels must reproduce bit for bit ---
# (a verbatim transcription of the solver before the kernel reused buffers)

def _ref_face_flux(d, beta):
    if beta == 2.0:
        return d
    if beta > 2.0:
        return np.abs(d) ** (beta - 2.0) * d
    return (d * d + GRAD_EPS * GRAD_EPS) ** ((beta - 2.0) / 2.0) * d


def _ref_max_diffusivity(v, d, p):
    if p.beta == 2.0:
        gfac = 1.0
    elif p.beta > 2.0:
        gfac = float(np.max(np.abs(d))) ** (p.beta - 2.0)
    else:
        dmin = float(np.min(np.abs(d)))
        gfac = (dmin * dmin + GRAD_EPS * GRAD_EPS) ** ((p.beta - 2.0) / 2.0)
    ffac = 1.0 if p.m == 1.0 else float(np.max(v)) ** (p.m - 1.0)
    return (p.beta - 1.0) * p.m * ffac * gfac


def _ref_advance(v, flux, h, dt, t):
    vn = v.copy()
    vn[0] += dt / h * flux[0]
    vn[-1] -= dt / h * flux[-1]
    vn[1:-1] += dt / h * np.diff(flux)
    worst = float(np.min(vn))
    if worst < -NEGATIVE_CLAMP_REL * max(float(np.max(vn)), 1.0):
        raise StabilityError(f"negative value {worst:g} at t = {t:g} (dt = {dt:g})")
    np.maximum(vn, 0.0, out=vn)
    return vn


def _ref_evolve(state, t_end, n_logs):
    p = state.params
    h = state.f.axis.step
    axis = state.f.axis

    def log_row(dens):
        return (tsallis_entropy(dens, p.q), m_q(dens, p.q),
                phi_fisher(dens, p.q, p.beta), integrate(dens))

    log_times = np.linspace(state.t, t_end, n_logs)
    rows = [log_row(state.f)]
    v = state.f.values
    t = state.t
    nsteps = state.step_count
    for target in log_times[1:]:
        while t < target - 1e-15 * max(1.0, abs(target)):
            d = np.diff(v ** p.m) / h
            dmax = _ref_max_diffusivity(v, d, p)
            dt = target - t if dmax <= 0 else min(CFL_SAFETY * h * h / dmax, target - t)
            v = _ref_advance(v, _ref_face_flux(d, p.beta), h, dt, t)
            t += dt
            nsteps += 1
        rows.append(log_row(GridDensity(axis, v)))
    arr = np.array(rows)
    log = TrajectoryLog(p.q, p.beta, p.m, log_times, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
    return DiffusionState(p, t_end, GridDensity(axis, v), nsteps), log


def _oracle_state(m, beta, count=201):
    """Initial data with exact zeros outside a compact support (for beta < 2
    the porous-medium profile: the run's own Barenblatt profile is not compact),
    except for the heat case, a Gaussian positive everywhere (the clamp-skip path)."""
    dp = DiffusionParams(m, beta, 1)
    if (m, beta) == (1.0, 2.0):
        ax = Axis(-10.0, 10.0, count)
        f = density_from_callable(ax, lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
        return DiffusionState(dp, 0.0, f)
    ax = Axis(-4.0, 4.0, count)
    return DiffusionState(dp, 1.0, barenblatt_density(PME if beta < 2 else dp, 1.0, ax))


def _subnormal_heat_state():
    """The heat oracle start with one subnormal value at node 30, whose f^-1
    overflows in phi's integrand: row 0's phi raises NonFiniteError."""
    st = _oracle_state(1.0, 2.0)
    values = st.f.values.copy()
    values[30] = 5e-324
    return DiffusionState(st.params, st.t, GridDensity(st.f.axis, values))


# (m, beta, span) with a C form, and without one (numpy marches these on
# every build); beta < 2 has dt ~ 1e-9 here, so only a short span
ORACLE_CASES = [(1.0, 2.0, 0.3), (2.0, 2.0, 0.5), (1.0, 3.0, 0.5), (2.0, 3.0, 0.5)]
NUMPY_ONLY_CASES = [(1.5, 2.5, 0.5), (2.0, 1.5, 2e-6)]
#: log row counts on both sides of a block of logged rows (40 rows on the
#: 201-node oracle grid, 2 to 32 on the acceptance grids; 160 rows are
#: whole blocks at each): part of a block, whole blocks, and whole blocks
#: and a part
BLOCK_N_LOGS = (2, 161, 162)


def _oracle_params(cases, marches):
    """Each (m, beta, span) case on each march, at 6 log rows, then at each
    of BLOCK_N_LOGS."""
    params = _with_block_n_logs(cases, ["-".join(map(str, case)) for case in cases], 6)
    return [pytest.param(march, *param.values, id=f"{march}-{param.id}")
            for march in marches for param in params]


def _with_block_n_logs(cases, ids, n_logs):
    """Each case at n_logs under its id, then at each of BLOCK_N_LOGS."""
    return ([pytest.param(*case, n_logs, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, rows, id=f"{i}-n_logs{rows}")
               for rows in BLOCK_N_LOGS for case, i in zip(cases, ids)])


# the four acceptance runs (dp, half-width, nodes, t0, span) over a short span:
# the production-size heat grid (clamp skipped) and compact supports (clamp every step)
ACCEPTANCE_GRIDS = [(HEAT, 10.0, 4001, 0.0, 0.01), (PME, 3.5, 251, 1.0, 0.05),
                    (PME, 3.5, 501, 1.0, 0.02), (DiffusionParams(1.0, 3.0, 1), 3.6, 1001, 1.0, 0.01)]


#: the reference outcome of each oracle input, keyed by the input and filled
#: at its first use: every build's march is compared with the one copy
_REFERENCES = {}


def _shared(key, reference):
    """reference(), called once per process for key."""
    if key not in _REFERENCES:
        _REFERENCES[key] = reference()
    return _REFERENCES[key]


def _assert_evolve_is_reference(st, span, n_logs=6):
    """evolve of st over span has the reference's steps, values and log, to the bit."""
    def run(march):
        out, log = march(st, st.t + span, n_logs)
        arrays = (out.f.values, log.times, log.S_q, log.M_q, log.phi, log.mass)
        return out.step_count, [a.tobytes() for a in arrays]

    key = ("evolve", repr(st.f.axis), st.params, st.t, st.f.values.tobytes(), span, n_logs)
    ref = _shared(key, lambda: run(_ref_evolve))
    assert run(evolve) == ref and ref[0] > 0


class TestKernelOracle:
    """The march evolve selects against the allocating reference, on every
    march: the cases without a C form march in numpy on every build, so
    they run on numpy alone."""

    @pytest.mark.parametrize("march,m,beta,span,n_logs",
                             _oracle_params(ORACLE_CASES, MARCHES)
                             + _oracle_params(NUMPY_ONLY_CASES, ["numpy"]), indirect=["march"])
    def test_evolve_bit_identical(self, march, m, beta, span, n_logs):
        _assert_evolve_is_reference(_oracle_state(m, beta), span, n_logs)

    def test_clamp_runs_on_negative_zero_minimum(self, march):
        # -0.0 plus a divergence that underflows to -0.0 stays -0.0; the clamp
        # must still run (min is not > 0) and make it +0.0, as the reference does
        h, dt = 1.0, 0.1
        v = np.array([-0.0, -5e-324, 1.0, 1.0])
        flux = np.diff(v) / h  # the heat flux; flux[0] = -5e-324
        ref = _ref_advance(v, flux, h, dt, 0.0)
        kernel = diffusion._Kernel(HEAT, h, v)
        diffusion._select_march(kernel)(0.0, dt, dt, 0, 1)  # the CFL dt is 0.25: one step of dt
        assert kernel.v.tobytes() == ref.tobytes()
        assert not np.signbit(kernel.v[0])

    @pytest.mark.parametrize("dp,half,count,t0,span,n_logs", _with_block_n_logs(
        ACCEPTANCE_GRIDS, ["heat-n4001", "pme-n251", "pme-n501", "plap-n1001"], 4))
    def test_acceptance_grids_bit_identical(self, march, dp, half, count, t0, span, n_logs):
        ax = Axis(-half, half, count)
        if dp == HEAT:
            f = density_from_callable(ax, lambda x: np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi))
        else:
            f = barenblatt_density(dp, 1.0, ax, barenblatt_mass_constant(dp))
        _assert_evolve_is_reference(DiffusionState(dp, t0, f), span, n_logs)


#: sha256 over the final values and the times, S_q, M_q, phi and mass
#: columns of the four full acceptance runs (heat N = 4001, pme N = 251 and
#: 501, plap N = 1001; n_logs = 201), run by run.  Like REPORT_SHA256 in
#: test_cli, these are the bytes of one host (x86-64 with AVX-512F, numpy
#: 2.4): numpy's SIMD power and log may round otherwise on another CPU or
#: numpy build
FULL_RUNS_SHA256 = "4aa0fd6672ae6922dc6aef1232c5ad2a4dc72477f29722f77d267cc6f892d5bc"


def test_full_acceptance_runs_pinned():
    # the reproduce digest prints maxima only: a moved bit elsewhere in a
    # row would pass it unseen
    suite = acceptance.AcceptanceSuite()
    digest = hashlib.sha256()
    for kind, count in [("heat", 4001), ("pme", 251), ("pme", 501), ("plap", 1001)]:
        _, _, state, log, _ = suite.run(kind, count)
        digest.update(state.f.values.tobytes())
        for col in ("times", "S_q", "M_q", "phi", "mass"):
            digest.update(getattr(log, col).tobytes())
    assert digest.hexdigest() == FULL_RUNS_SHA256


class TestAliasing:
    def test_input_untouched_and_outputs_independent(self):
        st = _oracle_state(2.0, 2.0)
        before = st.f.values.tobytes()
        out1, log1 = evolve(st, 1.2, n_logs=5)
        assert st.f.values.tobytes() == before
        snapshot = out1.f.values.tobytes()
        out2, log2 = evolve(st, 1.2, n_logs=5)
        assert not np.shares_memory(out1.f.values, out2.f.values)
        assert not np.shares_memory(out1.f.values, st.f.values)
        assert out1.f.values.tobytes() == snapshot == out2.f.values.tobytes()
        assert log1.S_q.tobytes() == log2.S_q.tobytes()
        evolve(out1, 1.3, n_logs=3)  # continuing from a result leaves it alone
        assert out1.f.values.tobytes() == snapshot


_march = diffusion._Kernel.march


def _no_step(self, t, target, stop, *args):
    if t < stop:
        raise AssertionError("the budget check must come before the first step")
    return _march(self, t, target, stop, *args)


class TestStepBudget:
    @pytest.mark.parametrize("m", [2.0, 3.0])
    def test_fast_gradient_regularization_refused_up_front(self, m, monkeypatch):
        # beta < 2 pairs GRAD_EPS^(beta-2) with the peak: ~3.79e6 steps at m = 2,
        # ~2.78e9 at m = 3 for t = 1 -> 2 on 501 nodes
        dp = DiffusionParams(m, 1.5, 1)
        st = DiffusionState(dp, 1.0, barenblatt_density(dp, 1.0, Axis(-3.5, 3.5, 501)))
        monkeypatch.setattr(diffusion._Kernel, "march", _no_step)
        with pytest.raises(StabilityError, match=r"steps of dt = .* budget of 1000000 .*node \d+"):
            evolve(st, 2.0)

    def test_march_budget(self, monkeypatch, march):
        # the estimate from the first dt is 120 steps; landing on 8 log rows
        # takes 126, so a budget of 121 passes the up-front check and trips the march
        st = _oracle_state(1.0, 2.0)
        dt0 = _cfl_dt(HEAT, st.f.axis.step, st.f.values)
        assert (0.3 - 0.0) / dt0 == pytest.approx(120.0)
        assert evolve(st, 0.3, n_logs=8)[0].step_count == 126
        monkeypatch.setattr(diffusion, "MAX_STEPS", 121)
        with pytest.raises(StabilityError, match="step budget of 121 exhausted"):
            evolve(st, 0.3, n_logs=8)

    def test_pending_row_error_wins_over_budget(self, monkeypatch):
        # as in test_march_budget, 121 steps run out in the last of 7
        # intervals; a subnormal planted at the end of the first makes row
        # 1's phi overflow, and rows 1-6 wait for the row that fills their block
        st = _oracle_state(1.0, 2.0)
        select, planted = diffusion._select_march, []

        def planting(kernel):
            march = select(kernel)

            def run(t, target, *args):
                out = march(t, target, *args)
                if t < target and not planted:
                    kernel.v[30] = 5e-324
                    planted.append(GridDensity(st.f.axis, kernel.v.copy()))
                return out
            return run

        monkeypatch.setattr(diffusion, "_select_march", planting)
        monkeypatch.setattr(diffusion, "MAX_STEPS", 121)
        with pytest.raises(NonFiniteError) as got:
            evolve(st, 0.3, n_logs=8)
        with pytest.raises(NonFiniteError) as alone:
            phi_fisher(planted[0], HEAT.q, HEAT.beta)
        assert str(got.value) == str(alone.value)
        assert "node index (30,)" in str(got.value)
        assert "step budget of 121 exhausted" in str(got.value.__context__)


# --- choosing, building and caching the compiled march ---

@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader with nothing loaded, building a copy of _kernels.c in
    tmp_path (so its cache is tmp_path/__pycache__); returns the copy and
    the list of compiler argvs it runs."""
    source = tmp_path / "_kernels.c"
    shutil.copyfile(_native.SOURCE, source)
    monkeypatch.setattr(_native, "SOURCE", source)
    monkeypatch.setattr(perturb, "_CHOICE", [])
    runs, run = [], subprocess.run

    def counting_run(argv, **kwargs):
        runs.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    clear_loader()
    yield source, runs
    clear_loader()


def clear_loader():
    """Forget the loaded library, as a new process would."""
    _native.library.cache_clear()


#: the nodes of one group of the compiled march's packed extrema at each
#: width (W ACC in _kernels.c: 2 and 8 doubles, ACC = 4); its fused pass
#: takes node 0 alone, then groups from node 1
GROUPS = (8, 32)
#: every length of the fused pass's last partial group (vectors, then single
#: nodes), with and without whole groups, and at production size, by build:
#: groups of the eight-wide body in packed, of the two-wide one elsewhere
_PRODUCTION_COUNTS = [4001, 4003, 4005, 4007]
TAIL_COUNTS = {build: list(range(3, 2 + 2 * GROUPS[build == "packed"])) + _PRODUCTION_COUNTS
               for build in BUILDS}


def _plantings(n):
    """Nothing; NaN, inf, -1.0 and -0.0 one at a time at node 0, node n-1,
    at node 1, and for each group size: inside the last partial group of the
    packed extrema as grouped from node 0 (the whole array below a group),
    inside the first whole group from node 1 (when there is one) and inside
    the fused pass's last partial group; a negative value with a NaN; at
    each of those nodes a peak of 1e20 that lifts the abort threshold above
    a -1e-12 elsewhere; and inside each first whole group a -1e-14, within
    the clamp tolerance, so a step clamps and the march goes on.  An inf
    turns into NaNs within a step (inf - inf, inf * 0), after the flux pass
    has taken its maxima."""
    firsts = tuple(group // 2 for group in GROUPS if n > group)
    nodes = [0, n - 1, 1, *firsts]
    for group in GROUPS:
        nodes += [(n // group * group + n - 1) // 2, (1 + (n - 1) // group * group + n - 1) // 2]
    nodes = tuple(dict.fromkeys(nodes))
    return ([{}] + [{node: value} for node in nodes for value in (np.nan, np.inf, -1.0, -0.0)]
            + [{0: -1.0, n - 1: np.nan}]
            + [{node: 1e20, (node + n // 2) % n: -1e-12} for node in nodes]
            + [{node: -1e-14} for node in firsts])


def _planted(values, planted):
    """A copy of values with planted {node: value} set."""
    v = values.copy()
    v[list(planted)] = list(planted.values())
    return v


def _cfl_dt(p, h, v):
    """The CFL dt of v, as the march of (p, h) takes it."""
    with np.errstate(invalid="ignore", over="ignore"):
        return diffusion._Kernel(p, h, v).march(0.0, 0.0, 0.0, 0, 0)[2]


def _as_bytes(x, canonical):
    """x as bytes; with canonical, every NaN as np.nan: the sign of a NaN made
    from an inf (inf - inf) follows operand order, which numpy and gcc choose apart."""
    return (np.where(np.isnan(x), np.nan, x) if canonical else x).tobytes()


def _assert_compiled_follows_numpy(p, h, start, t, target, stop, budget, canonical=False):
    """The compiled march of start from t toward target, to stop, within
    budget steps, on a kernel of its own, ends as the numpy march does (one
    copy of that per process for the same input): with the same (t, steps,
    cfl) or error text, and the same v, as _as_bytes.  Unless it aborts on a
    negative value, which leaves v unclamped, the fluxes it leaves are
    numpy's fluxes of its final values."""
    def outcome(name):
        kernel = diffusion._Kernel(p, h, start)
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                result = _as_bytes(np.array(getattr(kernel, name)(t, target, stop, 0, budget)), canonical)
        except StabilityError as err:
            result = str(err)
        return kernel, (result, _as_bytes(kernel.v, canonical))

    key = ("march", p, h, hashlib.sha256(start.tobytes()).hexdigest(), t, target, stop, budget, canonical)
    numpy_march = _shared(key, lambda: outcome("march")[1])
    kernel, compiled = outcome("march_compiled")
    assert compiled == numpy_march
    if isinstance(compiled[0], bytes) or not compiled[0].startswith("negative value"):
        flux = _numpy_flux(kernel.v, p.m, p.beta, h)
        assert _as_bytes(kernel.fpad[1:-1], canonical) == _as_bytes(flux, canonical)


#: the grid steps of the four acceptance runs, and steps whose significand
#: is all ones
DIVISION_STEPS = [20 / 4000, 7 / 250, 7 / 500, 7.2 / 1000, (2 - 2 ** -52) * 2 ** -8,
                  (2 - 2 ** -52) * 2 ** -5]
#: the binade below which every flux of a (m, beta) march stays finite
_FINITE_FLUX_TOP = {(1.0, 2.0): 1000, (2.0, 2.0): 500, (1.0, 3.0): 500, (2.0, 3.0): 245}
#: the floor of the wide division in x (v^m at least 2^-860), and the
#: double below it, next to each other; a subnormal difference; a value
#: whose quotient overflows
DIVISION_PLANTINGS = {
    "none": lambda m: {},
    "floor": lambda m: {20: 2.0 ** (-860 / m), 21: np.nextafter(2.0 ** (-860 / m), 0.0),
                        22: 2.0 ** (-860 / m)},
    "subnormal-difference": lambda m: {40: 2.0 ** -1070, 41: 2.0 ** -1070 + 2.0 ** -1074},
    "overflow": lambda m: {50: 1.7e308},
}


_ULP1 = 2.0 ** -52
#: (a, h) of hard quotients a/h.  The three significand pairs at which
#: RN(a RN(1/h)) lies 1.5 ulp from a/h and the remainder may round ("The
#: division" in _kernels.c), at two scales; and two differences below the
#: floor of the wide division whose quotient one correction rounds the
#: wrong way
HARD_QUOTIENTS = {
    f"k{k}-j{j}-{scale}": ((2.0 - k * _ULP1) * 2.0 ** scale, (2.0 - j * _ULP1) * 2.0 ** -7)
    for k, j in [(2, 1), (3, 1), (3, 2)] for scale in (-800, 400)}
HARD_QUOTIENTS.update({
    "below-floor": (float.fromhex("0x1.f6bbd46158526p-1022"), 20 / 4000),
    "subnormal": (float.fromhex("0x0.325c6fa9a9abep-1022"), 20 / 4000)})


def _numpy_flux(v, m, beta, h):
    """The face fluxes of v as _Kernel.march takes them."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(np.power(v, m)) / h
        return d if beta == 2.0 else np.power(np.abs(d), beta - 2.0) * d


class TestCompiledKernel:
    def test_selected_for_exact_forms_only(self, monkeypatch):
        # a silent fallback to numpy would pass every oracle test with the gain gone
        _needs_cc()
        for m, beta in EXACT_C_FORMS:
            kernel = diffusion._Kernel(DiffusionParams(m, beta, 1), 0.1, np.zeros(11))
            assert diffusion._select_march(kernel) == kernel.march_compiled, (m, beta)

        def no_build():
            raise AssertionError("compiled march requested")

        monkeypatch.setattr(_native, "library", no_build)
        for m, beta in [(1.5, 2.5), (2.0, 1.5)]:
            kernel = diffusion._Kernel(DiffusionParams(m, beta, 1), 0.1, np.zeros(11))
            assert diffusion._select_march(kernel) == kernel.march, (m, beta)

    @pytest.mark.parametrize("march", BUILDS, indirect=True)
    def test_builds_run_the_bodies_they_stand_for(self, march):
        # packed runs the widest body the CPU supports: a silent fall back to
        # a narrower body would pass every oracle test with the gain gone
        flags = _cpu_flags()
        if "sse2" not in flags:
            pytest.skip("not an x86-64 CPU")
        bodies = {"packed": 3 if "avx512f" in flags else 1, "pair": 1, "avx2": 1, "plain": 0}
        assert _native.library().qfisher_march_body() == bodies[march]

    @pytest.mark.parametrize("march", ["packed"], indirect=True)
    def test_benchmarked_runs_have_exact_c_forms(self, march):
        # every acceptance run and the diffuse defaults step in qfisher_march: a
        # run added outside the C set would put the numpy march on them unseen
        pairs = [(m, beta) for m, beta, *_ in acceptance.RUNS.values()]
        pairs.append((cli.DIFFUSE_DEFAULTS["m"], cli.DIFFUSE_DEFAULTS["beta"]))
        for m, beta in pairs:
            kernel = diffusion._Kernel(DiffusionParams(m, beta, 1), 0.1, np.zeros(11))
            assert diffusion._select_march(kernel) == kernel.march_compiled, (m, beta)

    @pytest.mark.parametrize("march", BUILDS, indirect=True)
    def test_errors_match_numpy_kernel(self, monkeypatch, march):
        def messages():
            texts = []
            for name, value, st, t_end in [
                    ("CFL_SAFETY", 50.0 * CFL_SAFETY, gaussian_state(count=201), 25.0),
                    ("MAX_STEPS", 121, _oracle_state(1.0, 2.0), 0.3)]:
                with monkeypatch.context() as patch:
                    patch.setattr(diffusion, name, value)
                    with pytest.raises(StabilityError) as err:
                        evolve(st, t_end, n_logs=8)
                texts.append(str(err.value))
            return texts

        compiled = messages()
        monkeypatch.setattr(_native, "library", lambda: None)
        assert compiled == messages()
        assert compiled[0].startswith("negative value") and "step budget" in compiled[1]

    @pytest.mark.parametrize("m,beta", EXACT_C_FORMS)
    @pytest.mark.parametrize("planted", [{100: np.nan}, {100: np.nan, 50: -1.0}, {50: -1.0}],
                             ids=["nan", "nan-and-negative", "negative"])
    @pytest.mark.parametrize("march", BUILDS, indirect=True)
    def test_nan_and_abort_follow_numpy(self, march, m, beta, planted):
        # a NaN makes numpy's minimum and maxima NaN: no abort, a NaN dt where
        # a maximum sets it; a negative value alone aborts
        st = _oracle_state(m, beta)
        end = st.t + 20.0 * _cfl_dt(st.params, st.f.axis.step, st.f.values)
        _assert_compiled_follows_numpy(st.params, st.f.axis.step, _planted(st.f.values, planted),
                                       st.t, end, end, 1000)

    @pytest.mark.parametrize("march,m,beta,n", [
        pytest.param(build, m, beta, n, id=f"{build}-{m}-{beta}-{n}")
        for build, counts in TAIL_COUNTS.items() for m, beta in EXACT_C_FORMS for n in counts],
        indirect=["march"])
    def test_tails_and_plantings_follow_numpy(self, march, m, beta, n):
        # _plantings on every length of the last partial group, with and
        # without whole groups, on each build's body
        st = _oracle_state(m, beta, n + 1 - n % 2)  # an Axis count is odd
        h, start = st.f.axis.step, st.f.values[:n]
        end = st.t + 20.0 * _cfl_dt(st.params, h, start)
        for planted in _plantings(n):
            _assert_compiled_follows_numpy(st.params, h, _planted(start, planted), st.t, end, end, 1000,
                                           np.isinf(list(planted.values())).any())

    @pytest.mark.parametrize("h", DIVISION_STEPS)
    @pytest.mark.parametrize("m,beta", EXACT_C_FORMS)
    @pytest.mark.parametrize("planted", DIVISION_PLANTINGS, ids=list(DIVISION_PLANTINGS))
    @pytest.mark.parametrize("march", BUILDS, indirect=True)
    def test_division_over_the_range_follows_numpy(self, march, planted, m, beta, h):
        # a few steps from a state log-uniform over the doubles whose fluxes
        # stay finite, with runs of zeros and values planted on both sides of
        # the floor of the wide division, at a subnormal difference and at a
        # quotient that overflows, on each build's body; the fluxes the
        # compiled march leaves are numpy's fluxes of its final values
        rng = np.random.default_rng(7)
        v = 2.0 ** rng.uniform(-960.0, _FINITE_FLUX_TOP[m, beta], 67)
        for start in (3, 30, 60):
            v[start:start + int(rng.integers(1, 9))] = 0.0
        v = _planted(v, DIVISION_PLANTINGS[planted](m))
        p = DiffusionParams(m, beta, 1)
        end = 3.5 * _cfl_dt(p, h, v)
        _assert_compiled_follows_numpy(p, h, v, 0.0, end, end, 100, True)

    @pytest.mark.parametrize("a,h", HARD_QUOTIENTS.values(), ids=list(HARD_QUOTIENTS))
    @pytest.mark.parametrize("beta", [2.0, 3.0])
    @pytest.mark.parametrize("march", BUILDS, indirect=True)
    def test_division_at_hard_quotients(self, march, beta, a, h):
        # a as the difference of the values a, 2a, a, ...; steps of dt = 0
        # (target = t) keep v and take its fluxes until the budget ends the
        # march, on each build's body
        v = np.array([a, 2.0 * a] * 10 + [a])
        _assert_compiled_follows_numpy(DiffusionParams(1.0, beta, 1), h, v, 0.0, 0.0, 1.0, 1)

    @pytest.mark.parametrize("m,beta", EXACT_C_FORMS)
    @pytest.mark.parametrize("march", BUILDS, indirect=True)
    def test_negative_zero_clamped_in_the_fluxes(self, march, m, beta):
        # +0, +0, -0 and -5e-324 at nodes 1-4 of a zero state: one step of
        # dt = 0.1 clamps the -0.0 it makes or keeps to +0.0, and the next
        # fluxes, taken in the same pass from the clamped values, are those
        # of the +0.0 the clamp leaves in v
        v = np.zeros(19)
        v[1:5] = [0.0, 0.0, -0.0, -5e-324]
        _assert_compiled_follows_numpy(DiffusionParams(m, beta, 1), 1.0, v, 0.0, 0.1, 0.1, 1)

    @pytest.mark.parametrize("flags", [()], ids=["packed"])
    def test_builds_without_warnings(self, flags, tmp_path):
        _build_kernels(tmp_path, *flags)

    def test_no_compiler_falls_back_once(self, fresh_loader, monkeypatch, tmp_path):
        source, runs = fresh_loader
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        for m, beta in [(2.0, 2.0), (1.0, 3.0)]:
            _assert_evolve_is_reference(_oracle_state(m, beta), 0.5)
        assert len(runs) == 1
        assert list((tmp_path / "__pycache__").iterdir()) == []

    def test_failing_compile_falls_back_once_and_leaves_nothing(self, fresh_loader, tmp_path):
        source, runs = fresh_loader
        source.write_text("this is not C\n")
        for m, beta in [(2.0, 2.0), (1.0, 3.0)]:
            _assert_evolve_is_reference(_oracle_state(m, beta), 0.5)
        assert len(runs) == 1
        assert list((tmp_path / "__pycache__").iterdir()) == []

    def test_unwritable_cache_builds_in_private_dir(self, fresh_loader, monkeypatch, tmp_path):
        # a file where __pycache__ should be: nothing can be written under it
        _needs_cc()
        source, runs = fresh_loader
        (tmp_path / "__pycache__").write_text("")
        private_root = tmp_path / "tmp"
        private_root.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(private_root))
        _assert_evolve_is_reference(_oracle_state(2.0, 3.0), 0.5)
        assert _native.library() is not None and len(runs) == 1
        assert list(private_root.iterdir()) == []  # removed once loaded

    def test_unloadable_cached_file_is_rebuilt(self, fresh_loader, tmp_path):
        # a damaged file, or one built on another machine, under the source's key
        _needs_cc()
        source, runs = fresh_loader
        key = hashlib.sha256(source.read_bytes() + " ".join(_native.CFLAGS).encode())
        cached = tmp_path / "__pycache__" / f"_kernels.{key.hexdigest()}.so"
        cached.parent.mkdir()
        cached.write_bytes(b"\0" * 16)
        _assert_evolve_is_reference(_oracle_state(1.0, 2.0), 0.3)
        assert _native.library() is not None and len(runs) == 1
        assert [p.name for p in cached.parent.iterdir()] == [cached.name]
        assert cached.stat().st_size > 16

    def test_cache_key_follows_source_bytes(self, fresh_loader, tmp_path):
        _needs_cc()
        source, runs = fresh_loader
        cache = tmp_path / "__pycache__"
        assert _native.library() is not None
        clear_loader()
        assert _native.library() is not None
        assert len(runs) == 1  # the second process-like load reuses the build
        source.write_bytes(source.read_bytes() + b"/* edited */\n")
        clear_loader()
        assert _native.library() is not None
        assert len(runs) == 2  # the stale build is not loaded
        names = sorted(p.name for p in cache.iterdir())
        assert len(names) == 2 and all(n.startswith("_kernels.") and n.endswith(".so") for n in names)
