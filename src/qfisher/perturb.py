"""Smooth same-constraint perturbation families around a q-Gaussian.

Used to certify the variational characterizations: multiply the reference
density by (1 + a b(x)) with b a windowed Fourier bump supported strictly
inside the (effective) support, renormalize, then restore the constraint
(alpha-moment or entropy power) exactly by dilation, both constraints having
known scaling laws (moment ~ c^alpha, N_q ~ c^2 under x -> c x).

Every batch comes from perturbation_batch: one fourier_bump draw from the
caller's rng per direction, in order, taken over the amplitude ladder (the
last ladder cut short at `count`) and then over any `extra` amplitudes
before the next draw.  The base grid of the current (p, count) and its
samples pdf(p, x) are kept read-only, and so, while a bump is current, are
its samples b(x / R_eff), which do not depend on the amplitude.  The
dilated grid is evaluated afresh for every amplitude: the dilation factor c
depends on it, and the abscissae x_c / c differ from the base nodes by
rounding.  A bump is evaluated only inside its window |u| < 1 and is
exactly zero outside.

The cos/sin tables of the bump modes and the window depend on the
abscissae, not on the draw.  Two tables are kept, read-only, and shared by
every bump: the one of the fixed 4001-point peak probe and the one of the
current base grid's nodes / R_eff; a new base grid replaces the old one, so
at most two tables of N_MODES rows are held.  A bump then only sums its
modes, in the same order, against the table.  Rescaling a kept table by 1/c
for a dilated grid would change the values in the last bits.

Every other abscissa array, which in a batch is a dilated grid, goes
through ``qfisher_bump`` of the compiled kernels (``_kernels.c``, whose C
signature :mod:`qfisher._native` declares and binds): one C pass that takes
the same libm ``cos``/``sin`` values and makes the same IEEE operations in
the same order as the numpy table path, so its values are that path's bits
where numpy's float64 cos and sin are libm's.  The choice is made once per
process, at the first such evaluation: C when the library loads and its
values for that draw on the peak probe equal the numpy table's byte for
byte, else numpy, which stays the reference and tabulates such arrays
afresh on every call, keeping none.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _native
from .core import Axis, GridDensity, normalize
from .info_measures import entropy_power, moment_abs
from .qgaussian import QGaussianParams, pdf, reach_radius

#: number of cos/sin modes in a bump
N_MODES = 8
#: amplitude range of the default perturbation ladder
AMPLITUDE_RANGE = (0.01, 0.2)
#: effective-radius tail mass for unbounded supports
BUMP_TAIL = 1e-9


def fourier_bump(rng: np.random.Generator):
    """Random smooth bump on [-1, 1]: the first N_MODES cos and sin modes
    under a cos^2 window vanishing at the ends, normalized to max |b| = 1."""
    coef = rng.uniform(-1.0, 1.0, size=(2, N_MODES))
    coef_ptr = coef.ctypes.data

    def raw(u):
        u = np.asarray(u, dtype=float)
        table = _kept_table(u)
        if table is None:
            kernel = _compiled_bump(coef)
            if kernel is None:
                table = _trig_table(u)
            else:
                src, out = np.ascontiguousarray(u), np.empty(u.shape)
                kernel(src.ctypes.data, src.size, coef_ptr, N_MODES, out.ctypes.data)
                return out
        return _mode_sum(coef, table)

    peak = float(np.max(np.abs(raw(_probe()))))
    if peak <= 0:  # pragma: no cover - measure-zero draw
        return lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return lambda u: raw(u) / peak


def _mode_sum(coef: np.ndarray, table: "_TrigTable") -> np.ndarray:
    """The unnormalized bump of coef at the table's abscissae: the window
    times the modes summed in order, zero outside the window."""
    acc = np.zeros(table.window.shape)
    # summed mode by mode in order; a matrix product would round
    # differently in the last bits
    for j in range(N_MODES):
        acc += coef[0, j] * table.cos[j] + coef[1, j] * table.sin[j]
    out = np.zeros_like(table.u)
    out[table.inside] = table.window * acc
    return out


#: the selected bump kernel, once chosen: [``qfisher_bump``] or [None] for
#: numpy
_CHOICE: list = []


def _compiled_bump(coef: np.ndarray):
    """``qfisher_bump`` of the compiled kernels, or None for the numpy table
    path; chosen at the first call in a process.  C is chosen when the
    compiled kernels load and their values for coef on the kept peak-probe
    abscissae equal the numpy table's byte for byte."""
    if not _CHOICE:
        lib = _native.library()
        kernel = None if lib is None else lib.qfisher_bump
        if kernel is not None:
            table = _kept_table(_probe())
            got = np.empty(table.u.size)
            kernel(table.u.ctypes.data, table.u.size, coef.ctypes.data, N_MODES, got.ctypes.data)
            if got.tobytes() != _mode_sum(coef, table).tobytes():
                kernel = None
        _CHOICE.append(kernel)
    return _CHOICE[0]


class _TrigTable(NamedTuple):
    """The draw-independent part of a bump at the abscissae u: the window
    mask |u| < 1, cos and sin of (j pi u) for j = 1..N_MODES at the nodes
    inside it (one row per mode), and the cos^2 window there."""

    u: np.ndarray
    inside: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    window: np.ndarray


def _kept_table(u: np.ndarray) -> _TrigTable | None:
    """The kept table of the very array u (not of an equal one), or None."""
    for table in _KEPT.values():
        if table.u is u:
            return table
    return None


def _trig_table(u: np.ndarray) -> _TrigTable:
    """A table of u built afresh."""
    inside = np.abs(u) < 1.0
    u_in = u[inside]
    phase = np.multiply.outer(np.arange(1, N_MODES + 1) * np.pi, u_in)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)  # phase is not needed again
    return _TrigTable(u, inside, cos, sin, np.cos(np.pi * u_in / 2.0) ** 2)


#: the kept trig tables, by role: "probe" (the peak probe) and "base" (the
#: current base grid).  Two entries at most.
_KEPT: dict[str, _TrigTable] = {}


def _keep(role: str, u) -> np.ndarray:
    """Tabulate u (made read-only) and keep the table under `role`,
    replacing the one kept there; return the kept abscissae."""
    table = _KEPT[role] = _trig_table(_read_only(u))
    for a in table[1:]:  # made here, so no caller holds them
        a.flags.writeable = False
    return table.u


def _probe() -> np.ndarray:
    """The 4001 abscissae on [-1, 1] the peak of every bump is taken over."""
    table = _KEPT.get("probe")
    return table.u if table is not None else _keep("probe", np.linspace(-1.0, 1.0, 4001))


def amplitude_ladder(n_levels: int) -> np.ndarray:
    """n_levels amplitudes spaced geometrically over AMPLITUDE_RANGE."""
    return np.geomspace(*AMPLITUDE_RANGE, n_levels)


def perturbation_batch(p: QGaussianParams, rng: np.random.Generator, count: int,
                       n_levels: int, constraint: str, target: float, grid_count: int,
                       extra=()):
    """Yield (direction, amplitude, density): direction k is the k-th
    fourier_bump(rng) draw, taken over amplitude_ladder(n_levels) (the last
    ladder cut short at `count` ladder densities in all) and then over the
    `extra` amplitudes.  Draws ceil(count / n_levels) bumps."""
    if count < 1 or n_levels < 1:
        raise ValueError(f"need count >= 1 and n_levels >= 1, got {count} and {n_levels}")
    ladder = [float(a) for a in amplitude_ladder(n_levels)]
    for direction in range(math.ceil(count / n_levels)):
        bump = fourier_bump(rng)
        for a in ladder[:count - direction * n_levels] + [float(a) for a in extra]:
            yield direction, a, perturbed_density(p, bump, a, constraint, target, grid_count)


def perturbed_density(p: QGaussianParams, bump, amplitude: float, constraint: str,
                      target: float, count: int = 8001) -> GridDensity:
    """Reference density times (1 + amplitude * bump(x / R_eff)), renormalized,
    then dilated so the named constraint ('moment' for E||X||^alpha,
    'entropy_power' for N_q) is restored to `target` exactly."""
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if p.dim != 1:
        raise ValueError("perturbation families are 1-D")
    r_eff, ax, pdf_vals, bump_vals = _base_samples(p, bump, count)

    def raw(x):
        return pdf(p, x) * (1.0 + amplitude * bump(x / r_eff))

    base = normalize(GridDensity(ax, pdf_vals * (1.0 + amplitude * bump_vals)))
    if constraint == "moment":
        current = moment_abs(base, p.alpha)
        c = (target / current) ** (1.0 / p.alpha)
    elif constraint == "entropy_power":
        current = entropy_power(base, p.q)
        c = np.sqrt(target / current)
    else:
        raise ValueError(f"unknown constraint {constraint!r}")
    ax_c = Axis(ax.lo * c, ax.hi * c, count)
    # exact dilation: f_c(x) = f(x/c)/c, evaluated from the callable on the
    # scaled grid (no interpolation)
    values = raw(ax_c.nodes() / c) / c
    return normalize(GridDensity(ax_c, values))


@functools.lru_cache(maxsize=1)
def _base_grid(p: QGaussianParams, count: int):
    """(R_eff, base axis, pdf(p, nodes), nodes / R_eff) of a reference and
    a node count, the arrays read-only; the trig table of nodes / R_eff is
    kept as the "base" table."""
    r_eff = reach_radius(p, BUMP_TAIL)
    r_grid = reach_radius(p) * 1.05
    ax = Axis(-r_grid, r_grid, count)
    nodes = ax.nodes()
    return r_eff, ax, _read_only(pdf(p, nodes)), _keep("base", nodes / r_eff)


@functools.lru_cache(maxsize=1)
def _base_samples(p: QGaussianParams, bump, count: int):
    """(R_eff, base axis, pdf(p, nodes), bump(nodes / R_eff)) for
    perturbed_density, the arrays read-only.  Keyed on the bump callable
    itself; one entry serves a whole amplitude ladder."""
    r_eff, ax, pdf_vals, u = _base_grid(p, count)
    return r_eff, ax, pdf_vals, _read_only(bump(u))


def _read_only(a) -> np.ndarray:
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view
