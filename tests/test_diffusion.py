"""Doubly nonlinear diffusion solver and trajectory diagnostics."""

import numpy as np
import pytest

from qfisher import diffusion
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
    stable_dt,
    step,
    trajectory_csv_rows,
)
from qfisher.info_measures import m_q, phi_fisher, tsallis_entropy
from qfisher.qgaussian import DiffusionParams, barenblatt, barenblatt_density, barenblatt_mass_constant

HEAT = DiffusionParams(1.0, 2.0, 1)
PME = DiffusionParams(2.0, 2.0, 1)


def gaussian_state(sigma=1.0, half=10.0, count=1001, t=0.0):
    ax = Axis(-half, half, count)
    f = density_from_callable(
        ax, lambda x: np.exp(-x * x / (2 * sigma ** 2)) / np.sqrt(2 * np.pi * sigma ** 2))
    return DiffusionState(HEAT, t, f)


class TestStep:
    def test_uniform_is_stationary(self):
        ax = Axis(0.0, 1.0, 101)
        f = density_from_callable(ax, lambda x: np.ones_like(x))
        st = DiffusionState(PME, 0.0, f)
        out = step(st, 1e-4)
        assert np.array_equal(out.f.values, f.values)

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
        m0 = st.discrete_mass
        for _ in range(50):
            st = step(st, stable_dt(st))
        assert abs(st.discrete_mass - m0) < 1e-12

    def test_instability_detected(self):
        st = gaussian_state(count=201)
        with pytest.raises(StabilityError, match="negative|drift"):
            out = st
            for _ in range(200):
                out = step(out, 50.0 * stable_dt(st))

    def test_dt_validation(self):
        st = gaussian_state(count=201)
        with pytest.raises(ValueError):
            step(st, -1.0)

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
    def test_zero_duration(self):
        st = gaussian_state(count=401)
        out, log = evolve(st, st.t, n_logs=11)
        assert out is st
        assert len(log.times) == 1
        assert log.mass[0] == pytest.approx(1.0, abs=1e-10)

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
        rows = trajectory_csv_rows(log, HEAT)
        assert len(rows) == 6 and len(rows[0]) == 8
        assert np.isnan(rows[0][5]) and np.isnan(rows[-1][5])
        assert not np.isnan(rows[1][5])
        # interior rel_err column consistent with the identity
        assert rows[1][7] == pytest.approx(abs(rows[1][5] - rows[1][6]) / abs(rows[1][6]))


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


def _ref_stable_dt(state):
    p = state.params
    v = state.f.values
    h = state.f.axis.step
    d = np.diff(v ** p.m) / h
    dmax = _ref_max_diffusivity(v, d, p)
    if dmax <= 0:
        return np.inf
    return CFL_SAFETY * h * h / dmax


def _ref_step(state, dt):
    p = state.params
    v = state.f.values
    h = state.f.axis.step
    d = np.diff(v ** p.m) / h
    vn = _ref_advance(v, _ref_face_flux(d, p.beta), h, dt, state.t)
    return DiffusionState(p, state.t + dt, GridDensity(state.f.axis, vn),
                          state.step_count + 1, state.mass0)


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
    return DiffusionState(p, t_end, GridDensity(axis, v), nsteps, state.mass0), log


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
    @pytest.mark.parametrize("m,beta,span", ORACLE_CASES)
    def test_evolve_bit_identical(self, m, beta, span):
        st = _oracle_state(m, beta)
        ref, ref_log = _ref_evolve(st, st.t + span, 6)
        out, log = evolve(st, st.t + span, 6)
        assert out.step_count == ref.step_count > 0
        assert out.f.values.tobytes() == ref.f.values.tobytes()
        for col in ("times", "S_q", "M_q", "phi", "mass"):
            assert getattr(log, col).tobytes() == getattr(ref_log, col).tobytes(), col

    @pytest.mark.parametrize("m,beta,span", ORACLE_CASES)
    def test_step_bit_identical(self, m, beta, span):
        st = ref = _oracle_state(m, beta)
        for _ in range(40):
            dt = stable_dt(st)
            assert dt == _ref_stable_dt(ref)
            st, ref = step(st, dt), _ref_step(ref, dt)
        assert st.f.values.tobytes() == ref.f.values.tobytes()

    def test_clamp_runs_on_negative_zero_minimum(self):
        # -0.0 plus a divergence that underflows to -0.0 stays -0.0; the clamp
        # must still run (min is not > 0) and make it +0.0, as the reference does
        h, dt = 1.0, 0.1
        v = np.array([-0.0, -5e-324, 1.0, 1.0])
        flux = np.diff(v) / h  # the heat flux; flux[0] = -5e-324
        ref = _ref_advance(v, flux, h, dt, 0.0)
        kernel = diffusion._Kernel(HEAT, h, v.size)
        out = v.copy()
        kernel.march(out, 0.0, np.inf, np.inf, 0, 1, dt)
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

    def test_step_leaves_input_untouched(self):
        st = _oracle_state(1.0, 3.0)
        before = st.f.values.tobytes()
        out = step(st, stable_dt(st))
        assert st.f.values.tobytes() == before
        assert not np.shares_memory(out.f.values, st.f.values)


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

    def test_march_budget(self, monkeypatch):
        # the estimate from the first dt is 120 steps; landing on 8 log rows
        # takes 126, so a budget of 121 passes the up-front check and trips the march
        st = _oracle_state(1.0, 2.0)
        assert (0.3 - 0.0) / stable_dt(st) == pytest.approx(120.0)
        assert evolve(st, 0.3, n_logs=8)[0].step_count == 126
        monkeypatch.setattr(diffusion, "MAX_STEPS", 121)
        with pytest.raises(StabilityError, match="step budget of 121 exhausted"):
            evolve(st, 0.3, n_logs=8)

