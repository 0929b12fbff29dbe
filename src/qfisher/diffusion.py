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
the CFL rule as plain numpy array expressions.  :func:`evolve` is its only
driver: one march of no step reads the initial CFL dt for the step budget,
then one march per log interval takes every step of the interval.  The
conserved mass h sum(f) is computed in evolve alone.  After every step,
values more negative than NEGATIVE_CLAMP_REL times the peak raise
StabilityError and smaller negatives are clamped to zero; the clamp is
skipped only when the minimum is strictly positive, so it never changes a
bit it would not have changed.  evolve() refuses runs that would take more
than MAX_STEPS steps, spans whose end does not exceed their start, and spans
too short for n_logs strictly increasing log times.

The functionals of the initial density are logged before the first step.
Each later logged state is checked (boundary contact, mass drift,
GridDensity's validation) before the next interval marches, and copied into
a block of rows (:class:`_LogBlock`: as many as LOG_BLOCK_VALUES values
hold, at least one).  When the block fills, and when the run ends or
fails, S_q, M_q, phi and the Simpson mass of all its rows are taken with one
numpy call per operation along the rows, through the integrands of
:mod:`qfisher.info_measures`, each row with the bits and the errors it has
alone.

For m in {1, 2} and beta in {2, 3}, where v^m and the face flux have exact
C forms (v or v*v, d or |d| d), evolve runs :meth:`_Kernel.march_compiled`
instead: the same loop as one C function, ``qfisher_march`` in
``_kernels.c``, whose results are the numpy march's bit for bit (but for
the sign bit of a NaN that a step makes from an inf, as inf - inf), when
:mod:`qfisher._native` builds or loads the library at the first such run in
a process.  After one flux pass on entry, each of its steps is one pass
over v: the update of a node, and the next step's flux at the face to its
left from the clamped values, which are the values the clamp then leaves.
The pass runs eight doubles wide where the CPU has AVX-512F, dividing by h
through its reciprocal and one fused-multiply-add correction whose result is
the quotient's bits, and two wide otherwise.  Every acceptance run and the
``diffuse`` defaults are in that set.  The
numpy march is the fallback without a compiler and for every other
(m, beta), where numpy's ``power`` is not libm's ``pow`` to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .core import (
    Axis,
    GridDensity,
    NonFiniteError,
    Tolerances,
    _gradient,
    _integrals,
    integrate,
    simpson_weights,
)
from .info_measures import (
    Q_ONE_WINDOW,
    _masked_power,
    _phi_integrand,
    _shannon_integrand,
    _tsallis,
    m_q,
    phi_fisher,
    tsallis_entropy,
)
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
#: most values in a block of logged states whose functionals are evaluated
#: together, one numpy call per operation over the block: max(1,
#: LOG_BLOCK_VALUES // n) rows of n nodes, so that each temporary an
#: operation makes stays within 64 KiB: larger ones come back from malloc
#: as fresh pages, whose faults cost more than the calls a larger block
#: saves (on the N = 4001 grid, 2 rows a block beat 3, 4 and 8)
LOG_BLOCK_VALUES = 8192


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
    """One run of the explicit conservative update: ``v``, a C-contiguous
    float64 copy of the start values, stepped in place by every march.

    :meth:`march` writes the update in plain numpy arrays, in the operation
    order of ``qfisher_march``: ``d = diff(v^m) / h``, the face flux
    ``F = |d|^(beta-2) d`` (regularized by GRAD_EPS for beta < 2), the CFL
    bound, then ``v += diff([0, F, 0]) * (dt / h)``, where the two zero
    fluxes at the outer faces are the no-flux boundary, and the clamp.  It
    runs without a compiler and for every (m, beta) outside the C set, and
    it is the reference the compiled march is tested against.

    :meth:`march_compiled` runs the same operations in C, in place, over the
    buffers allocated here: ``d`` = D(v^m) / h (n-1; the interior of
    ``fpad`` when beta = 2), ``fpad`` (n+1) the face fluxes between two
    zeros, ``io`` its t, cfl, dt and worst minimum, and ``count`` its step
    count.  Their addresses, and v's, are taken once, here.  The C march
    takes the fluxes of v once on entry; after that each step's update pass
    also takes the next step's fluxes (from the clamped values), so a step
    reads v and ``fpad`` once.
    """

    def __init__(self, p: DiffusionParams, h: float, values: np.ndarray):
        self.p = p
        self.h = h
        self.v = np.array(values, dtype=np.float64, order="C")
        n = self.v.size
        self.fpad = np.zeros(n + 1)
        self.d = self.fpad[1:-1] if p.beta == 2.0 else np.empty(n - 1)
        self.io = np.zeros(4)
        self.count = np.zeros(1, dtype=np.longlong)
        self.c_args = (self.v.ctypes.data, self.d.ctypes.data, self.fpad.ctypes.data, n,
                       p.m == 2.0, p.beta == 3.0, h, (p.beta - 1.0) * p.m)
        self.c_out = (self.io.ctypes.data, self.count.ctypes.data)

    def march(self, t: float, target: float, stop: float, steps: int, budget: int):
        """Steps v in place from time t while t < stop and returns (t, steps,
        cfl), where cfl is the CFL dt of the final v.  :func:`evolve` is the
        only caller.

        Each iteration is one flux pass, which computes the face fluxes of v
        and sets cfl = CFL_SAFETY h^2 / (bound on the linearized diffusivity
        (beta-1) m f^(m-1) |grad f^m|^(beta-2), node and face maxima bounded
        separately), or inf when the bound vanishes (a uniform state); then,
        unless t >= stop, one step of dt = min(cfl, target - t).  A step is
        v += dt/h div(flux), then the negativity abort and the roundoff
        clamp.  Both are skipped when min(v) > 0 strictly, where they cannot
        change a bit (np.maximum turns -0.0 into +0.0); max(v) is read only
        to judge a negative minimum.  A step that takes the count past
        ``budget`` raises.
        """
        p, h, v = self.p, self.h, self.v
        while True:
            d = np.diff(np.power(v, p.m)) / h
            if p.beta == 2.0:
                flux, gfac = d, 1.0
            elif p.beta > 2.0:
                grad = np.abs(d)
                flux = np.power(grad, p.beta - 2.0) * d
                gfac = float(grad.max()) ** (p.beta - 2.0)
            else:
                eps2, half = GRAD_EPS * GRAD_EPS, (p.beta - 2.0) / 2.0
                flux = np.power(d * d + eps2, half) * d
                dmin = float(np.abs(d).min())
                gfac = (dmin * dmin + eps2) ** half
            ffac = 1.0 if p.m == 1.0 else float(v.max()) ** (p.m - 1.0)
            dmax = (p.beta - 1.0) * p.m * ffac * gfac
            cfl = math.inf if dmax <= 0 else CFL_SAFETY * h * h / dmax
            if not t < stop:
                return t, steps, cfl
            dt = min(cfl, target - t)
            v += np.diff(np.concatenate(([0.0], flux, [0.0]))) * (dt / h)
            worst = float(v.min())
            if not worst > 0.0:
                if worst < 0.0 and worst < -NEGATIVE_CLAMP_REL * max(float(v.max()), 1.0):
                    raise _negative_value(worst, t, dt)
                np.maximum(v, 0.0, out=v)
            t += dt
            steps += 1
            if steps > budget:
                raise _budget_exhausted(t, dt)

    def march_compiled(self, t: float, target: float, stop: float, steps: int, budget: int):
        """:meth:`march` as the one C loop ``qfisher_march`` of ``_kernels.c``,
        for m in {1, 2} and beta in {2, 3}: the same arguments, results and
        errors, bit for bit, except that a NaN a step makes from an inf may
        differ in sign bit.  It fuses each step's update with the next
        step's flux pass, which leaves every bit as it is, and runs the pass
        eight doubles wide where the CPU has AVX-512F, else two wide
        (``qfisher_march_body`` says which body runs: 3, or 1 with SSE2 and
        0 in plain C).  CFL_SAFETY and NEGATIVE_CLAMP_REL are read on every
        call, as :meth:`march` reads them."""
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

    def limiting_node(self) -> int:
        """Node that sets the CFL dt of v: the face of extreme |D v^m| / h
        (its left node) when beta != 2, else the peak."""
        v = self.v
        if self.p.beta == 2.0:
            return int(np.argmax(v))
        grad = np.abs(np.diff(np.power(v, self.p.m)) / self.h)
        return int(np.argmax(grad) if self.p.beta > 2.0 else np.argmin(grad))


def _select_march(kernel: _Kernel):
    """kernel.march_compiled when (m, beta) has an exact C form and
    ``_kernels.c`` compiled, else the numpy kernel.march."""
    p = kernel.p
    if p.m in (1.0, 2.0) and p.beta in (2.0, 3.0) and _native.library() is not None:
        return kernel.march_compiled
    return kernel.march


def _check_boundary_clear(v: np.ndarray, t: float):
    peak = float(np.maximum.reduce(v))
    if peak <= 0:
        raise StabilityError("solution vanished")
    if max(v[0], v[1], v[-2], v[-1]) > 1e-10 * peak:
        raise StabilityError(
            f"support reached the domain boundary at t = {t:g}; "
            "enlarge the domain (no-flux boundaries require boundary non-contact)"
        )


def _log_row(dens: GridDensity, p: DiffusionParams):
    """(S_q, M_q, phi, mass) of one logged state, in the order a row
    evaluates them."""
    mq = m_q(dens, p.q)
    return tsallis_entropy(dens, p.q, mq), mq, phi_fisher(dens, p.q, p.beta), integrate(dens)


def _block_rows(rows: np.ndarray, w: np.ndarray, axis: Axis, p: DiffusionParams):
    """:func:`_log_row` of each row of a (k, n) block of states on `axis`
    (quadrature weights w), one numpy call per operation along the rows,
    each row with the bits it has alone.  A row with a non-finite integral
    raises NonFiniteError, though not always the first row that does."""
    mask = rows > 0
    mq = _integrals(w, _masked_power(rows, mask, p.q), axis)
    if abs(p.q - 1.0) < Q_ONE_WINDOW:
        s = _integrals(w, _shannon_integrand(rows, mask), axis)
    else:
        s = _tsallis(mq, p.q)
    g = _gradient(rows, mask, axis.step)
    phi = _integrals(w, _phi_integrand(rows, mask, g, p.q, p.beta), axis)
    return s, mq, phi, _integrals(w, rows, axis)


class _LogBlock:
    """The logged functionals of a run, into ``columns`` (S_q, M_q, phi and
    mass by log row).

    Row 0, the caller's density, is evaluated on creation by
    :func:`_log_row`.  :meth:`add` copies each later state into a
    preallocated C-contiguous block of as many rows as LOG_BLOCK_VALUES
    values hold, at least one.  :meth:`flush`,
    called when the block fills and when the run ends or fails, evaluates
    every pending row with one numpy call per operation along the rows
    (:func:`_block_rows`), each row with the bits of :func:`_log_row` on its
    state alone.  A block that raises NonFiniteError is evaluated again one
    row at a time, in order, by :func:`_log_row`, so the error raised is the
    first row's that raises alone."""

    def __init__(self, first: GridDensity, p: DiffusionParams, n_logs: int):
        self.axis, self.p = first.axis, p
        self.w = simpson_weights(first.axis)
        n = first.axis.count
        self.values = np.empty((max(1, LOG_BLOCK_VALUES // n), n))
        self.columns = np.empty((4, n_logs))
        self.columns[:, 0] = _log_row(first, p)
        self.pending, self.done = 0, 1

    def add(self, v: np.ndarray):
        self.values[self.pending] = v
        self.pending += 1
        if self.pending == len(self.values):
            self.flush()

    def flush(self):
        k, self.pending = self.pending, 0
        if not k:
            return
        rows = self.values[:k]
        try:
            self.columns[:, self.done:self.done + k] = _block_rows(rows, self.w, self.axis, self.p)
            self.done += k
            return
        except NonFiniteError as err:
            failed = err
        # the block names a row with a non-finite integral, not always the
        # first in log order: one row at a time names the first (raised
        # here, outside the handler, so its context is any error evolve is
        # leaving with, not the block's)
        for row in rows:
            _log_row(GridDensity(self.axis, row), self.p)
        raise failed


def evolve(state: DiffusionState, t_end: float, n_logs: int = 201) -> tuple[DiffusionState, TrajectoryLog]:
    """March to t_end with automatic stable dt, logging the functionals on a
    uniform time grid of n_logs rows (dt_log ~ span/200 by default).

    Each log interval is one :meth:`_Kernel.march` (or its C form, see
    :func:`_select_march`), whose steps have dt = min(CFL dt, time to the
    next log row) and apply in place to the kernel's copy of
    ``state.f.values`` (the caller's array is never written).  The clamp
    runs after every step whose minimum is not strictly positive.  The
    functionals (S_q, M_q, phi and the Simpson mass) of state.f are taken
    before the first step.  At each later log row, boundary contact, drift
    of the conserved mass h sum(f) and the state's GridDensity validation
    are checked before the next interval marches, and its functionals are
    evaluated a block of rows at a time (:class:`_LogBlock`), with the bits
    and errors each row has alone.  Pending rows are evaluated before any
    error leaves evolve, so an error of a logged row wins over one of a
    later interval.

    A t_end that does not exceed state.t (NaN included), and a span too
    short for n_logs strictly increasing log times, raise ValueError before
    the first step.  A run whose step count, estimated from the initial dt,
    would exceed MAX_STEPS is refused before the first step, and the march
    aborts if it takes more than MAX_STEPS steps; both raise StabilityError.
    """
    if n_logs < 2:
        raise ValueError(f"n_logs must be >= 2 (the first and last rows), got {n_logs}")
    if not t_end > state.t:
        raise ValueError(f"t_end = {t_end} must exceed the current t = {state.t}")
    log_times = np.linspace(state.t, t_end, n_logs)
    if not np.all(np.diff(log_times) > 0):
        raise ValueError(f"log times from t = {state.t} to t_end = {t_end} over n_logs = {n_logs} "
                         "rows are not strictly increasing")
    p = state.params
    h = state.f.axis.step
    axis = state.f.axis

    kernel = _Kernel(p, h, state.f.values)
    v = kernel.v
    march = _select_march(kernel)
    t = state.t
    dt0 = march(t, t, t, 0, 0)[2]
    estimate = (t_end - state.t) / dt0 if dt0 > 0 else math.inf
    if estimate > MAX_STEPS:
        raise StabilityError(
            f"about {estimate:.3g} steps of dt = {dt0:g} needed to reach t = {t_end:g}, "
            f"over the budget of {MAX_STEPS} (dt is limited at node "
            f"{kernel.limiting_node()}); coarsen the grid or shorten the run"
        )
    _check_boundary_clear(v, state.t)
    block = _LogBlock(state.f, p, n_logs)
    nsteps = state.step_count
    budget = nsteps + MAX_STEPS
    mass_ref = h * float(np.add.reduce(v))
    try:
        for target in log_times[1:].tolist():
            stop = target - 1e-15 * max(1.0, abs(target))
            t, nsteps, _ = march(t, target, stop, nsteps, budget)
            _check_boundary_clear(v, t)
            drift = abs(h * float(np.add.reduce(v)) - mass_ref)
            if drift > MASS_DRIFT_TOL:
                raise StabilityError(f"mass drift {drift:g} exceeds {MASS_DRIFT_TOL:g} at t = {t:g}")
            dens = GridDensity(axis, v)
            block.add(v)
    finally:
        block.flush()
    final = DiffusionState(p, t_end, dens, nsteps)
    S, M, phi, mass = block.columns
    return final, TrajectoryLog(p.q, p.beta, p.m, log_times, S, M, phi, mass)


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
