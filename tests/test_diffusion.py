"""Doubly nonlinear diffusion solver and trajectory diagnostics."""

import hashlib
import shutil
import subprocess

import numpy as np
import pytest

from qfisher import _native, diffusion, perturb
from qfisher.core import Axis, GridDensity, Tolerances, density_from_callable, integrate
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
from qfisher.qgaussian import DiffusionParams, barenblatt, barenblatt_density, barenblatt_mass_constant

HEAT = DiffusionParams(1.0, 2.0, 1)
PME = DiffusionParams(2.0, 2.0, 1)


@pytest.fixture
def compiled_kernel():
    """evolve runs the compiled march wherever (m, beta) has an exact C form."""
    if _native.library() is None:
        pytest.skip("the compiled march is unavailable: no working C compiler")


@pytest.fixture
def numpy_kernel(monkeypatch):
    """evolve runs the numpy march for every (m, beta)."""
    monkeypatch.setattr(_native, "library", lambda: None)


def gaussian_state(sigma=1.0, half=10.0, count=1001, t=0.0):
    ax = Axis(-half, half, count)
    f = density_from_callable(
        ax, lambda x: np.exp(-x * x / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2))
    return DiffusionState(HEAT, t, f)


class TestStep:
    def test_uniform_is_stationary(self):
        ax = Axis(0.0, 1.0, 101)
        f = density_from_callable(ax, lambda x: np.ones_like(x))
        v = f.values.copy()
        # evolve refuses this state (it touches the boundary): march it directly
        diffusion._Kernel(PME, ax.step, v.size).march(v, 0.0, 1e-4, 1e-4, 0, 100)
        assert np.array_equal(v, f.values)

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

    def test_instability_detected(self, monkeypatch, compiled_kernel):
        st = gaussian_state(count=201)
        monkeypatch.setattr(diffusion, "CFL_SAFETY", 50.0 * CFL_SAFETY)  # 50x the stable dt
        with pytest.raises(StabilityError, match="negative|drift"):
            evolve(st, 25.0, n_logs=3)

    def test_instability_detected_numpy_kernel(self, monkeypatch, numpy_kernel):
        self.test_instability_detected(monkeypatch, numpy_kernel)

    def test_fast_diffusion_rejected(self):
        ax = Axis(-8.0, 8.0, 201)
        f = density_from_callable(ax, lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
        with pytest.raises(ValueError, match="fast-diffusion"):
            DiffusionState(DiffusionParams(0.5, 2.0, 1), 0.0, f)

    def test_solver_is_one_dimensional(self):
        # a radial density (dim 2 or 3) is refused
        for dim in (2, 3):
            f = GridDensity(Axis(0.0, 2.0, 21), np.exp(-np.linspace(0.0, 2.0, 21) ** 2), dim)
            with pytest.raises(ValueError, match="1-D"):
                DiffusionState(HEAT, 0.0, f)


class TestEvolve:
    def test_zero_duration_refused(self, monkeypatch):
        # t_end = t used to return the input state with a 1-row log, and
        # t_end = nan the state at t = nan after 0 steps
        monkeypatch.setattr(diffusion._Kernel, "march", _no_step)
        st = gaussian_state(count=401, t=0.5)
        for t_end in (0.5, 0.4, np.nan):
            with pytest.raises(ValueError, match=f"t_end = {t_end} must exceed the current t = 0.5"):
                evolve(st, t_end, n_logs=11)

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

    def test_boundary_contact_aborts(self):
        st = gaussian_state(half=2.5, count=201)  # tails already near the edge
        with pytest.raises(StabilityError, match="boundary"):
            evolve(st, 1.0, n_logs=5)

    @pytest.mark.parametrize("n_logs", [0, 1])
    def test_too_few_log_rows_refused(self, n_logs, monkeypatch):
        # n_logs = 1 used to return the initial density labelled t_end after
        # 0 steps, and n_logs = 0 a log with 0 times and 1 row
        monkeypatch.setattr(diffusion._Kernel, "march", _no_step)
        st = DiffusionState(PME, 1.0, barenblatt_density(PME, 1.0, Axis(-3.5, 3.5, 251)))
        with pytest.raises(ValueError, match=rf"n_logs must be >= 2 .*, got {n_logs}"):
            evolve(st, 2.0, n_logs=n_logs)

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

    def test_needs_three_rows(self):
        log = TrajectoryLog(1.0, 2.0, 1.0, np.array([0.0, 1.0]), np.zeros(2),
                            np.ones(2), np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="3 log rows"):
            debruijn_check(log, HEAT)


class TestMonotonicity:
    def test_heat_fisher_decreases(self):
        st = gaussian_state(count=1001, half=9.0)
        _, log = evolve(st, 0.3, n_logs=31)
        rep = phi_monotonicity_check(log)
        assert rep.passed
        # classical: phi(t) = 1/(1 + 2t), strictly decreasing
        exact = 1.0 / (1.0 + 2 * log.times)
        assert np.max(np.abs(log.phi - exact)) < 1e-4

    def test_beta2_required(self):
        log = TrajectoryLog(1.5, 3.0, 1.0, np.array([0.0, 0.1, 0.2]),
                            np.zeros(3), np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="beta = 2"):
            phi_monotonicity_check(log)

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


# --- the allocating update the in-place kernel must reproduce bit for bit ---
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


def _oracle_state(m, beta):
    """Initial data with exact zeros outside a compact support (for beta < 2
    the porous-medium profile: the run's own Barenblatt profile is not compact),
    except for the heat case, a Gaussian positive everywhere (the clamp-skip path)."""
    dp = DiffusionParams(m, beta, 1)
    if (m, beta) == (1.0, 2.0):
        ax = Axis(-10.0, 10.0, 201)
        f = density_from_callable(ax, lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
        return DiffusionState(dp, 0.0, f)
    ax = Axis(-4.0, 4.0, 201)
    return DiffusionState(dp, 1.0, barenblatt_density(PME if beta < 2 else dp, 1.0, ax))


# (m, beta, span): beta < 2 has dt ~ 1e-9 here, so only a short span
ORACLE_CASES = [(1.0, 2.0, 0.3), (2.0, 2.0, 0.5), (1.0, 3.0, 0.5), (2.0, 3.0, 0.5),
                (1.5, 2.5, 0.5), (2.0, 1.5, 2e-6)]


# the four acceptance runs (dp, half-width, nodes, t0, span) over a short span:
# the production-size heat grid (clamp skipped) and compact supports (clamp every step)
ACCEPTANCE_GRIDS = [(HEAT, 10.0, 4001, 0.0, 0.01), (PME, 3.5, 251, 1.0, 0.05),
                    (PME, 3.5, 501, 1.0, 0.02), (DiffusionParams(1.0, 3.0, 1), 3.6, 1001, 1.0, 0.01)]


class TestKernelOracle:
    """The march evolve selects against the allocating reference: compiled
    wherever (m, beta) has an exact C form (numpy in the subclass below)."""

    @pytest.fixture(autouse=True)
    def kernel(self, compiled_kernel):
        pass

    @pytest.mark.parametrize("m,beta,span", ORACLE_CASES)
    def test_evolve_bit_identical(self, m, beta, span):
        st = _oracle_state(m, beta)
        ref, ref_log = _ref_evolve(st, st.t + span, 6)
        out, log = evolve(st, st.t + span, 6)
        assert out.step_count == ref.step_count > 0
        assert out.f.values.tobytes() == ref.f.values.tobytes()
        for col in ("times", "S_q", "M_q", "phi", "mass"):
            assert getattr(log, col).tobytes() == getattr(ref_log, col).tobytes(), col

    def test_clamp_runs_on_negative_zero_minimum(self):
        # -0.0 plus a divergence that underflows to -0.0 stays -0.0; the clamp
        # must still run (min is not > 0) and make it +0.0, as the reference does
        h, dt = 1.0, 0.1
        v = np.array([-0.0, -5e-324, 1.0, 1.0])
        flux = np.diff(v) / h  # the heat flux; flux[0] = -5e-324
        ref = _ref_advance(v, flux, h, dt, 0.0)
        march = diffusion._select_march(diffusion._Kernel(HEAT, h, v.size))
        out = v.copy()
        march(out, 0.0, dt, dt, 0, 1)  # the CFL dt is 0.25: one step of dt
        assert out.tobytes() == ref.tobytes()
        assert not np.signbit(out[0])

    @pytest.mark.parametrize("dp,half,count,t0,span", ACCEPTANCE_GRIDS,
                             ids=["heat-n4001", "pme-n251", "pme-n501", "plap-n1001"])
    def test_acceptance_grids_bit_identical(self, dp, half, count, t0, span):
        ax = Axis(-half, half, count)
        if dp == HEAT:
            f = density_from_callable(ax, lambda x: np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi))
        else:
            f = barenblatt_density(dp, 1.0, ax, barenblatt_mass_constant(dp))
        st = DiffusionState(dp, t0, f)
        ref, ref_log = _ref_evolve(st, t0 + span, 4)
        out, log = evolve(st, t0 + span, 4)
        assert out.step_count == ref.step_count > 0
        assert out.f.values.tobytes() == ref.f.values.tobytes()
        for col in ("times", "S_q", "M_q", "phi", "mass"):
            assert getattr(log, col).tobytes() == getattr(ref_log, col).tobytes(), col


class TestKernelOracleNumpyKernel(TestKernelOracle):
    @pytest.fixture(autouse=True)
    def kernel(self, numpy_kernel):
        pass


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


def _no_step(self, v, t, target, stop, *args):
    if t < stop:
        raise AssertionError("the budget check must come before the first step")
    return _march(self, v, t, target, stop, *args)


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

    def test_march_budget(self, monkeypatch, compiled_kernel):
        # the estimate from the first dt is 120 steps; landing on 8 log rows
        # takes 126, so a budget of 121 passes the up-front check and trips the march
        st = _oracle_state(1.0, 2.0)
        v = st.f.values.copy()
        dt0 = diffusion._Kernel(HEAT, st.f.axis.step, v.size).march(v, 0.0, 0.0, 0.0, 0, 0)[2]
        assert (0.3 - 0.0) / dt0 == pytest.approx(120.0)
        assert evolve(st, 0.3, n_logs=8)[0].step_count == 126
        monkeypatch.setattr(diffusion, "MAX_STEPS", 121)
        with pytest.raises(StabilityError, match="step budget of 121 exhausted"):
            evolve(st, 0.3, n_logs=8)

    def test_march_budget_numpy_kernel(self, monkeypatch, numpy_kernel):
        self.test_march_budget(monkeypatch, numpy_kernel)


# --- choosing, building and caching the compiled march ---

EXACT_C_FORMS = [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (2.0, 3.0)]


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


def _needs_cc():
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")


def _assert_evolve_is_reference(m, beta, span):
    st = _oracle_state(m, beta)
    ref, ref_log = _ref_evolve(st, st.t + span, 6)
    out, log = evolve(st, st.t + span, 6)
    assert out.step_count == ref.step_count > 0
    assert out.f.values.tobytes() == ref.f.values.tobytes()
    assert log.S_q.tobytes() == ref_log.S_q.tobytes()


class TestCompiledKernel:
    def test_selected_for_exact_forms_only(self, monkeypatch):
        # a silent fallback to numpy would pass every oracle test with the gain gone
        _needs_cc()
        for m, beta in EXACT_C_FORMS:
            kernel = diffusion._Kernel(DiffusionParams(m, beta, 1), 0.1, 11)
            assert diffusion._select_march(kernel) == kernel.march_compiled, (m, beta)

        def no_build():
            raise AssertionError("compiled march requested")

        monkeypatch.setattr(_native, "library", no_build)
        for m, beta in [(1.5, 2.5), (2.0, 1.5)]:
            kernel = diffusion._Kernel(DiffusionParams(m, beta, 1), 0.1, 11)
            assert diffusion._select_march(kernel) == kernel.march, (m, beta)

    def test_errors_match_numpy_kernel(self, monkeypatch, compiled_kernel):
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
    def test_nan_and_abort_follow_numpy(self, m, beta, planted, compiled_kernel):
        # a NaN makes numpy's minimum and maxima NaN: no abort, a NaN dt where
        # a maximum sets it; a negative value alone aborts
        st = _oracle_state(m, beta)
        outcomes = []
        for name in ("march", "march_compiled"):
            v = st.f.values.copy()
            for node, value in planted.items():
                v[node] = value
            kernel = diffusion._Kernel(st.params, st.f.axis.step, v.size)
            try:
                t, steps, cfl = getattr(kernel, name)(v, st.t, st.t + 0.01, st.t + 0.01, 0, 40)
                result = np.array([t, steps, cfl]).tobytes()
            except StabilityError as err:
                result = str(err)
            outcomes.append((result, v.tobytes(), kernel.d.tobytes(), kernel.fpad.tobytes()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("m,beta", EXACT_C_FORMS)
    def test_each_array_stepped_through_its_own_address(self, m, beta, compiled_kernel):
        # the addresses are kept per array: a second array on the same kernel
        # is stepped, and the first is left alone
        st = _oracle_state(m, beta)
        t, span = st.t, st.t + 0.01
        ref = st.f.values.copy()
        diffusion._Kernel(st.params, st.f.axis.step, ref.size).march(ref, t, span, span, 0, 40)
        kernel = diffusion._Kernel(st.params, st.f.axis.step, ref.size)
        first, second = st.f.values.copy(), st.f.values.copy()
        kernel.march_compiled(first, t, span, span, 0, 40)
        kernel.march_compiled(second, t, span, span, 0, 40)
        assert first.tobytes() == second.tobytes() == ref.tobytes()

    def test_no_compiler_falls_back_once(self, fresh_loader, monkeypatch, tmp_path):
        source, runs = fresh_loader
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        for m, beta in [(2.0, 2.0), (1.0, 3.0)]:
            _assert_evolve_is_reference(m, beta, 0.5)
        assert len(runs) == 1
        assert list((tmp_path / "__pycache__").iterdir()) == []

    def test_failing_compile_falls_back_once_and_leaves_nothing(self, fresh_loader, tmp_path):
        source, runs = fresh_loader
        source.write_text("this is not C\n")
        for m, beta in [(2.0, 2.0), (1.0, 3.0)]:
            _assert_evolve_is_reference(m, beta, 0.5)
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
        _assert_evolve_is_reference(2.0, 3.0, 0.5)
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
        _assert_evolve_is_reference(1.0, 2.0, 0.3)
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
