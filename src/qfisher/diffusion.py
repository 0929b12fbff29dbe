"""Explicit conservative solver for f_t = div(|grad f^m|^(beta-2) grad f^m)
in one dimension, with trajectory logging of the entropy / Fisher functionals
and the entropy-production (de Bruijn type) identity check

    d/dt S_q[f] = q m^(beta-1) phi(beta, q)[f]        (q = m + 1 - alpha/beta)

along the numerical flow.  The scheme uses face-centered fluxes
F = |D(f^m)|^(beta-2) D(f^m) in flux-difference form, so the discrete mass
h sum(f) is conserved exactly (no-flux boundaries); conservation is checked
on that invariant.  The composite-Simpson reading of the mass is logged as
well but wobbles by O(h^2 |[f']|) while a support front crosses nodes, which
is quadrature error at the kink rather than leakage.  Runs abort if the
support (or the 1e-10 mass tail) reaches the domain edge.

One kernel method, :meth:`_Kernel.march`, holds the update arithmetic and
the CFL rule, and works in place on buffers allocated once per run.
:func:`evolve` calls it once per log interval, marching every step of the
interval in one loop that binds its array views, ufuncs and constants once;
:func:`step` is a march of one step of a given size, and :func:`stable_dt`
a march of none, which only reads the CFL dt.  After every step, values more
negative than NEGATIVE_CLAMP_REL times the peak raise StabilityError and
smaller negatives are clamped to zero; the clamp is skipped only when the
minimum is strictly positive, so it never changes a bit it would not have
changed.  evolve() refuses runs that would take more than MAX_STEPS steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GridDensity, Tolerances, integrate
from .info_measures import m_q, phi_fisher, tsallis_entropy
from .qgaussian import DiffusionParams
from .reports import VerificationReport, identity_report

#: CFL safety factor for the explicit step
CFL_SAFETY = 0.25
#: most explicit steps one evolve() call may take
MAX_STEPS = 10**6
#: roundoff negatives are clamped to zero down to this magnitude (relative to
#: the solution peak); anything more negative is a stability failure
NEGATIVE_CLAMP_REL = 1e-13
#: fast-diffusion regularization of |grad f^m|^(beta-2) at grad = 0, beta < 2
GRAD_EPS = 1e-12
#: tolerated drift of the discrete conserved mass h sum(f)
MASS_DRIFT_TOL = 1e-6


class StabilityError(RuntimeError):
    pass


@dataclass
class DiffusionState:
    """Solution snapshot: parameters, time, gridded density, bookkeeping."""

    params: DiffusionParams
    t: float
    f: GridDensity
    step_count: int = 0
    mass0: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.f.dim != 1:
            raise ValueError("the diffusion solver is 1-D")
        if self.params.m * (self.params.beta - 1.0) < 1.0 - 1e-12:
            raise ValueError(
                "explicit solver requires m(beta-1) >= 1: the fast-diffusion "
                "range has unbounded diffusivity where f -> 0"
            )
        if self.mass0 is None:
            self.mass0 = integrate(self.f)

    @property
    def discrete_mass(self) -> float:
        """The scheme's exactly conserved mass h sum(f)."""
        return float(self.f.axis.step * np.sum(self.f.values))


@dataclass
class TrajectoryLog:
    """Per-log-time functionals along a run (all with the run's own q, beta)."""

    q: float
    beta: float
    m: float
    times: np.ndarray
    S_q: np.ndarray
    M_q: np.ndarray
    phi: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("log times must be strictly increasing")


class _Kernel:
    """The explicit conservative update on one n-node grid, done in place.

    Scratch buffers are allocated once per run: ``w`` = v^m (n; v itself when
    m = 1), ``d`` = D(v^m) / h (n-1), ``a`` = |d| and then the powered flux
    (n-1), ``fl`` = the flux divergence (n).  The face fluxes sit in ``fpad``
    (n+1) between two zero fluxes at the outer faces, the no-flux boundary,
    so one difference gives the divergence at every node.  Elementwise, the
    operations and their order are those of ``d = diff(v**m) / h``,
    ``F = |d|^(beta-2) d`` (regularized by GRAD_EPS for beta < 2),
    ``v[0] += dt/h F[0]``, ``v[-1] -= dt/h F[-1]``, ``v[1:-1] += dt/h diff(F)``
    and the clamp, so results are bit for bit those of that allocating form.
    (At v[-1] the two can differ only in the sign of a zero sum, which the
    clamp then makes +0.0 either way.)

    :meth:`march` is the only code that runs these operations.  It binds its
    views, ufuncs and constants once per call, so a step looks up no
    attribute and calls no Python method.
    """

    def __init__(self, p: DiffusionParams, h: float, n: int):
        self.p = p
        self.h = h
        self.w = None if p.m == 1.0 else np.empty(n)
        self.fpad = np.zeros(n + 1)
        if p.beta == 2.0:
            self.d = self.fpad[1:-1]
        else:
            self.d = np.empty(n - 1)
            self.a = self.fpad[1:-1]
        self.fl = np.empty(n)

    def march(self, v: np.ndarray, t: float, target: float, stop: float,
              steps: int, budget: int, fixed_dt: float | None = None):
        """Steps v in place from time t while t < stop and returns (t, steps,
        cfl), where cfl is the CFL dt of the final v.

        Each iteration is one flux pass, which puts the face fluxes of v in
        ``fpad`` and sets cfl = CFL_SAFETY h^2 / (bound on the linearized
        diffusivity (beta-1) m f^(m-1) |grad f^m|^(beta-2), node and face
        maxima bounded separately), or inf when the bound vanishes (a uniform
        state); then, unless t >= stop, one step of dt = min(cfl, target - t),
        or of ``fixed_dt`` when given (which makes it the last step).  A step is
        v += dt/h div(flux), then the negativity abort and the roundoff clamp.
        Both are skipped when min(v) > 0 strictly, where they cannot change a
        bit (np.maximum turns -0.0 into +0.0); max(v) is read only to judge a
        negative minimum.  A step that takes the count past ``budget`` raises.
        """
        h, beta, wbuf, d, fl = self.h, self.p.beta, self.w, self.d, self.fl
        w = v if wbuf is None else wbuf
        w_hi, w_lo = w[1:], w[:-1]
        f_hi, f_lo = self.fpad[1:], self.fpad[:-1]
        a = None if beta == 2.0 else self.a
        subtract, divide, multiply, add = np.subtract, np.divide, np.multiply, np.add
        power, absolute, maximum = np.power, np.abs, np.maximum
        vmin, vmax = np.minimum.reduce, np.maximum.reduce
        m, m_less1 = self.p.m, self.p.m - 1.0
        beta_less2, half_beta_less2 = beta - 2.0, (beta - 2.0) / 2.0
        diffusivity = (beta - 1.0) * m
        cfl_h2 = CFL_SAFETY * h * h
        eps2 = GRAD_EPS * GRAD_EPS
        clamp_rel = -NEGATIVE_CLAMP_REL
        while True:
            if wbuf is not None:
                power(v, m, out=wbuf)
            subtract(w_hi, w_lo, out=d)
            divide(d, h, out=d)
            if a is None:
                gfac = 1.0
            else:
                absolute(d, out=a)
                if beta > 2.0:
                    gfac = float(vmax(a)) ** beta_less2
                    power(a, beta_less2, out=a)
                else:
                    dmin = float(vmin(a))
                    gfac = (dmin * dmin + eps2) ** half_beta_less2
                    multiply(d, d, out=a)
                    add(a, eps2, out=a)
                    power(a, half_beta_less2, out=a)
                multiply(a, d, out=a)
            ffac = 1.0 if wbuf is None else float(vmax(v)) ** m_less1
            dmax = diffusivity * ffac * gfac
            cfl = math.inf if dmax <= 0 else cfl_h2 / dmax
            if not t < stop:
                return t, steps, cfl
            if fixed_dt is None:
                dt = min(cfl, target - t)
            else:
                dt, stop = fixed_dt, t  # one step of the given size
            subtract(f_hi, f_lo, out=fl)
            multiply(fl, dt / h, out=fl)
            add(v, fl, out=v)
            worst = float(vmin(v))
            if not worst > 0.0:
                if worst < 0.0 and worst < clamp_rel * max(float(vmax(v)), 1.0):
                    raise StabilityError(
                        f"negative value {worst:g} beyond clamp tolerance at t = {t:g} "
                        f"(dt = {dt:g}); reduce dt or refine the grid"
                    )
                maximum(v, 0.0, out=v)
            t += dt
            steps += 1
            if steps > budget:
                raise StabilityError(
                    f"step budget of {MAX_STEPS} exhausted at t = {t:g} (dt = {dt:g})")

    def limiting_node(self, v: np.ndarray) -> int:
        """Node that sets the CFL dt of the last flux pass: the face of
        extreme |D f^m| (its left node) when beta != 2, else the peak."""
        if self.p.beta > 2.0:
            return int(np.argmax(np.abs(self.d)))
        if self.p.beta < 2.0:
            return int(np.argmin(np.abs(self.d)))
        return int(np.argmax(v))


def stable_dt(state: DiffusionState) -> float:
    """dt = CFL_SAFETY * h^2 / max(linearized diffusivity)."""
    v, t = state.f.values, state.t
    return _Kernel(state.params, state.f.axis.step, v.size).march(v, t, t, t, 0, 0)[2]


def step(state: DiffusionState, dt: float) -> DiffusionState:
    """One explicit conservative step of size dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    v = state.f.values.copy()
    kernel = _Kernel(state.params, state.f.axis.step, v.size)
    kernel.march(v, state.t, math.inf, math.inf, 0, 1, dt)
    new = DiffusionState(state.params, state.t + dt, GridDensity(state.f.axis, v),
                         state.step_count + 1, state.mass0)
    drift = abs(new.discrete_mass - state.discrete_mass)
    if drift > MASS_DRIFT_TOL:
        raise StabilityError(f"mass drift {drift:g} exceeds {MASS_DRIFT_TOL:g} at t = {new.t:g}")
    return new


def _check_boundary_clear(v: np.ndarray, t: float):
    peak = float(np.max(v))
    if peak <= 0:
        raise StabilityError("solution vanished")
    if max(v[0], v[1], v[-2], v[-1]) > 1e-10 * peak:
        raise StabilityError(
            f"support reached the domain boundary at t = {t:g}; "
            "enlarge the domain (no-flux boundaries require boundary non-contact)"
        )


def evolve(state: DiffusionState, t_end: float, n_logs: int = 201) -> tuple[DiffusionState, TrajectoryLog]:
    """March to t_end with automatic stable dt, logging the functionals on a
    uniform time grid of n_logs rows (dt_log ~ span/200 by default).

    Each log interval is one :meth:`_Kernel.march`, whose steps are those of
    :func:`step` with dt = min(:func:`stable_dt`, time to the next log row),
    applied in place to one copy of ``state.f.values`` (the caller's array
    is never written).  The clamp runs
    on every step; mass drift and boundary contact are checked at each log
    row.  A run whose step count, estimated from the initial dt, would exceed
    MAX_STEPS is refused before the first step, and the march aborts if it
    takes more than MAX_STEPS steps; both raise StabilityError.
    """
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} precedes current t = {state.t}")
    p = state.params
    h = state.f.axis.step
    axis = state.f.axis

    def log_row(dens: GridDensity):
        return (tsallis_entropy(dens, p.q), m_q(dens, p.q),
                phi_fisher(dens, p.q, p.beta), integrate(dens))

    if t_end == state.t:
        s, mq_, phi, mass = log_row(state.f)
        return state, TrajectoryLog(p.q, p.beta, p.m, np.array([state.t]),
                                    np.array([s]), np.array([mq_]),
                                    np.array([phi]), np.array([mass]))

    v = state.f.values.copy()
    kernel = _Kernel(p, h, v.size)
    t = state.t
    dt0 = kernel.march(v, t, t, t, 0, 0)[2]
    estimate = (t_end - state.t) / dt0 if dt0 > 0 else math.inf
    if estimate > MAX_STEPS:
        raise StabilityError(
            f"about {estimate:.3g} steps of dt = {dt0:g} needed to reach t = {t_end:g}, "
            f"over the budget of {MAX_STEPS} (dt is limited at node "
            f"{kernel.limiting_node(v)}); coarsen the grid or shorten the run"
        )
    log_times = np.linspace(state.t, t_end, n_logs)
    _check_boundary_clear(v, state.t)
    rows = [log_row(state.f)]
    nsteps = state.step_count
    budget = nsteps + MAX_STEPS
    mass_ref = h * float(np.sum(v))
    for target in log_times[1:]:
        stop = target - 1e-15 * max(1.0, abs(target))
        t, nsteps, _ = kernel.march(v, t, target, stop, nsteps, budget)
        _check_boundary_clear(v, t)
        drift = abs(h * float(np.sum(v)) - mass_ref)
        if drift > MASS_DRIFT_TOL:
            raise StabilityError(f"mass drift {drift:g} exceeds {MASS_DRIFT_TOL:g} at t = {t:g}")
        rows.append(log_row(GridDensity(axis, v)))
    final = DiffusionState(p, t_end, GridDensity(axis, v), nsteps, state.mass0)
    arr = np.array(rows)
    log = TrajectoryLog(p.q, p.beta, p.m, log_times, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
    return final, log


def debruijn_check(log: TrajectoryLog, dparams: DiffusionParams,
                   tol: Tolerances | None = None) -> list[VerificationReport]:
    """Entropy-production identity along the trajectory.

    At each interior log time, the centered finite difference of S_q(t) is
    compared with q m^(beta-1) phi(beta, q) and with the equivalent
    M_q^beta-normalized form q m^(beta-1) M_q^beta I(beta, q); the latter two
    must agree to 1e-10 (they are the same number given I = phi / M_q^beta).
    """
    if len(log.times) < 3:
        raise ValueError("need at least 3 log rows for centered differences")
    tol = tol or Tolerances.for_pde()
    p = dparams
    pref = p.q * p.m ** (p.beta - 1.0)
    reports = []
    for i in range(1, len(log.times) - 1):
        dsdt = (log.S_q[i + 1] - log.S_q[i - 1]) / (log.times[i + 1] - log.times[i - 1])
        rhs_phi = pref * log.phi[i]
        i_fish = log.phi[i] / log.M_q[i] ** p.beta
        rhs_mi = pref * log.M_q[i] ** p.beta * i_fish
        forms = identity_report("debruijn-rhs-forms", rhs_phi, rhs_mi, 1e-10)
        rep = identity_report(f"debruijn@t={log.times[i]:.6g}", dsdt, rhs_phi, tol.identity_rel,
                              extras={"t": float(log.times[i]), "rhs_mi": rhs_mi,
                                      "forms_agree": forms.passed})
        rep.passed = rep.passed and forms.passed
        reports.append(rep)
    return reports


def phi_monotonicity_check(log: TrajectoryLog, slack: float = 1e-9) -> VerificationReport:
    """phi(2, q) non-increasing and S_q non-decreasing along the log (valid
    for beta = 2 trajectories with q > 1 - 1/n)."""
    if log.beta != 2.0:
        raise ValueError("monotonicity diagnostic applies to beta = 2 trajectories")
    dphi = np.diff(log.phi)
    ds = np.diff(log.S_q)
    worst_phi_rise = float(dphi.max(initial=-math.inf))
    worst_s_drop = float(ds.min(initial=math.inf))
    passed = worst_phi_rise <= slack and worst_s_drop >= -slack
    return VerificationReport(
        name="phi-monotone/S-monotone",
        lhs=worst_phi_rise, rhs=0.0, gap=worst_phi_rise, tolerance=slack, passed=bool(passed),
        extras={"worst_S_drop": worst_s_drop, "rows": int(len(log.times))},
    )


def trajectory_csv_rows(log: TrajectoryLog, dparams: DiffusionParams):
    """Rows {t, mass, M_q, S_q, phi, dSdt_fd, rhs_identity, rel_err} for CSV export
    (finite differences undefined at the first/last row -> nan)."""
    pref = dparams.q * dparams.m ** (dparams.beta - 1.0)
    rows = []
    n = len(log.times)
    for i in range(n):
        if 0 < i < n - 1:
            dsdt = (log.S_q[i + 1] - log.S_q[i - 1]) / (log.times[i + 1] - log.times[i - 1])
            rhs = pref * log.phi[i]
            rel = abs(dsdt - rhs) / max(abs(rhs), 1e-300)
        else:
            dsdt = rhs = rel = math.nan
        rows.append((log.times[i], log.mass[i], log.M_q[i], log.S_q[i], log.phi[i],
                     dsdt, rhs, rel))
    return rows
