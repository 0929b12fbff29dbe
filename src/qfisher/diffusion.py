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
:func:`evolve` is its only driver: one march of no step reads the initial
CFL dt for the step budget, then one march per log interval takes every step
of the interval in a loop that binds its array views, ufuncs and constants
once.  The conserved mass h sum(f) is computed in evolve alone.  After every
step, values more negative than NEGATIVE_CLAMP_REL times the peak raise
StabilityError and smaller negatives are clamped to zero; the clamp is
skipped only when the minimum is strictly positive, so it never changes a
bit it would not have changed.  evolve() refuses runs that would take more
than MAX_STEPS steps, and spans whose end does not exceed their start.

For m in {1, 2} and beta in {2, 3}, where v^m and the face flux have exact
C forms (v or v*v, d or |d| d), evolve runs :meth:`_Kernel.march_compiled`
instead: the same loop as one C function, ``qfisher_march`` in
``_kernels.c``, whose results are the numpy march's bit for bit, when
:mod:`qfisher._native` (which declares and binds its C signature) builds or
loads the library at the first such run in a process.  Without a compiler,
and for every other (m, beta), the numpy march runs; numpy's ``power`` for
other exponents is not libm's ``pow`` to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
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


def _negative_value(worst: float, t: float, dt: float) -> StabilityError:
    return StabilityError(f"negative value {worst:g} beyond clamp tolerance at t = {t:g} "
                          f"(dt = {dt:g}); reduce dt or refine the grid")


def _budget_exhausted(t: float, dt: float) -> StabilityError:
    return StabilityError(f"step budget of {MAX_STEPS} exhausted at t = {t:g} (dt = {dt:g})")


@dataclass
class DiffusionState:
    """Solution snapshot: parameters, time, gridded density, bookkeeping."""

    params: DiffusionParams
    t: float
    f: GridDensity
    step_count: int = 0

    def __post_init__(self):
        if self.f.dim != 1:
            raise ValueError("the diffusion solver is 1-D")
        if self.params.m * (self.params.beta - 1.0) < 1.0 - 1e-12:
            raise ValueError(
                "explicit solver requires m(beta-1) >= 1: the fast-diffusion "
                "range has unbounded diffusivity where f -> 0"
            )


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

    :meth:`march` runs these operations with numpy ufuncs, binding its views,
    ufuncs and constants once per call, so a step looks up no attribute and
    calls no Python method.  :meth:`march_compiled` runs the same operations
    in C for the (m, beta) of ``qfisher_march``; :meth:`march` is its
    reference.
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
        self.io = np.zeros(4)  # the compiled march's t, cfl, dt, worst
        self.count = np.zeros(1, dtype=np.longlong)  # and its step count
        self.c_v = None  # the v whose addresses c_args holds

    def march(self, v: np.ndarray, t: float, target: float, stop: float,
              steps: int, budget: int):
        """Steps v in place from time t while t < stop and returns (t, steps,
        cfl), where cfl is the CFL dt of the final v.  :func:`evolve` is the
        only caller.

        Each iteration is one flux pass, which puts the face fluxes of v in
        ``fpad`` and sets cfl = CFL_SAFETY h^2 / (bound on the linearized
        diffusivity (beta-1) m f^(m-1) |grad f^m|^(beta-2), node and face
        maxima bounded separately), or inf when the bound vanishes (a uniform
        state); then, unless t >= stop, one step of dt = min(cfl, target - t).
        A step is v += dt/h div(flux), then the negativity abort and the
        roundoff clamp.  Both are skipped when min(v) > 0 strictly, where they
        cannot change a bit (np.maximum turns -0.0 into +0.0); max(v) is read
        only to judge a negative minimum.  A step that takes the count past
        ``budget`` raises.
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
            dt = min(cfl, target - t)
            subtract(f_hi, f_lo, out=fl)
            multiply(fl, dt / h, out=fl)
            add(v, fl, out=v)
            worst = float(vmin(v))
            if not worst > 0.0:
                if worst < 0.0 and worst < clamp_rel * max(float(vmax(v)), 1.0):
                    raise _negative_value(worst, t, dt)
                maximum(v, 0.0, out=v)
            t += dt
            steps += 1
            if steps > budget:
                raise _budget_exhausted(t, dt)

    def march_compiled(self, v: np.ndarray, t: float, target: float, stop: float,
                       steps: int, budget: int):
        """:meth:`march` as the one C loop ``qfisher_march`` of ``_kernels.c``,
        for m in {1, 2} and beta in {2, 3}: the same arguments, buffers (``d``
        and ``fpad``; ``w`` and ``fl`` stay unused), results and errors, bit
        for bit.  The addresses of v, ``d``, ``fpad``, ``io`` and ``count``
        are taken at the first call with a given v, which is once per
        :func:`evolve`.  CFL_SAFETY and NEGATIVE_CLAMP_REL are read on every
        call, as :meth:`march` reads them."""
        if v is not self.c_v:
            if v.dtype != np.float64 or not v.flags.c_contiguous or v.size != self.fl.size:
                raise ValueError("the compiled march needs a contiguous float64 array of n nodes")
            p = self.p
            self.c_v = v
            self.c_args = (v.ctypes.data, self.d.ctypes.data, self.fpad.ctypes.data, v.size,
                           p.m == 2.0, p.beta == 3.0, self.h, (p.beta - 1.0) * p.m)
            self.c_out = (self.io.ctypes.data, self.count.ctypes.data)
        h, io, count = self.h, self.io, self.count
        io[0], count[0] = t, steps
        code = _native.library().qfisher_march(*self.c_args, CFL_SAFETY * h * h, -NEGATIVE_CLAMP_REL,
                                               target, stop, budget, *self.c_out)
        t, cfl, dt, worst = io.tolist()
        if code == 1:
            raise _negative_value(worst, t, dt)
        if code == 2:
            raise _budget_exhausted(t, dt)
        return t, int(count[0]), cfl

    def limiting_node(self, v: np.ndarray) -> int:
        """Node that sets the CFL dt of the last flux pass: the face of
        extreme |D f^m| (its left node) when beta != 2, else the peak."""
        if self.p.beta > 2.0:
            return int(np.argmax(np.abs(self.d)))
        if self.p.beta < 2.0:
            return int(np.argmin(np.abs(self.d)))
        return int(np.argmax(v))


def _select_march(kernel: _Kernel):
    """kernel.march_compiled when (m, beta) has an exact C form and
    ``_kernels.c`` compiled, else the numpy kernel.march."""
    p = kernel.p
    if p.m in (1.0, 2.0) and p.beta in (2.0, 3.0) and _native.library() is not None:
        return kernel.march_compiled
    return kernel.march


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

    Each log interval is one :meth:`_Kernel.march` (or its C form, see
    :func:`_select_march`), whose steps have dt = min(CFL dt, time to the
    next log row) and apply in place to one copy of
    ``state.f.values`` (the caller's array is never written).  The clamp runs
    on every step; drift of the conserved mass h sum(f) and boundary contact
    are checked at each log row.  A t_end that does not exceed state.t (NaN
    included) raises ValueError.  A run whose step count, estimated from the
    initial dt, would exceed MAX_STEPS is refused before the first step, and
    the march aborts if it takes more than MAX_STEPS steps; both raise
    StabilityError.
    """
    if n_logs < 2:
        raise ValueError(f"n_logs must be >= 2 (the first and last rows), got {n_logs}")
    if not t_end > state.t:
        raise ValueError(f"t_end = {t_end} must exceed the current t = {state.t}")
    p = state.params
    h = state.f.axis.step
    axis = state.f.axis

    def log_row(dens: GridDensity):
        mq = m_q(dens, p.q)
        return (tsallis_entropy(dens, p.q, mq), mq, phi_fisher(dens, p.q, p.beta), integrate(dens))

    v = state.f.values.copy()
    kernel = _Kernel(p, h, v.size)
    march = _select_march(kernel)
    t = state.t
    dt0 = march(v, t, t, t, 0, 0)[2]
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
        t, nsteps, _ = march(v, t, target, stop, nsteps, budget)
        _check_boundary_clear(v, t)
        drift = abs(h * float(np.sum(v)) - mass_ref)
        if drift > MASS_DRIFT_TOL:
            raise StabilityError(f"mass drift {drift:g} exceeds {MASS_DRIFT_TOL:g} at t = {t:g}")
        rows.append(log_row(GridDensity(axis, v)))
    final = DiffusionState(p, t_end, GridDensity(axis, v), nsteps)
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
        forms = identity_report(rhs_phi, rhs_mi, 1e-10)
        rep = identity_report(dsdt, rhs_phi, tol.identity_rel,
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
        lhs=worst_phi_rise, rhs=0.0, gap=worst_phi_rise, passed=bool(passed),
        extras={"worst_S_drop": worst_s_drop, "rows": int(len(log.times))},
    )


def trajectory_csv_rows(log: TrajectoryLog, reports: list[VerificationReport]):
    """Rows {t, mass, M_q, S_q, phi, dSdt_fd, rhs_identity, rel_err} for CSV
    export, the last three from the `debruijn_check(log, ...)` reports (its
    lhs, rhs and gap; undefined at the first/last row -> nan)."""
    blank = (math.nan, math.nan, math.nan)
    fd = [blank] + [(r.lhs, r.rhs, r.gap) for r in reports] + [blank]
    return [(log.times[i], log.mass[i], log.M_q[i], log.S_q[i], log.phi[i], *fd[i])
            for i in range(len(log.times))]
