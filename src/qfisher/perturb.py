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
abscissae, not on the draw.  The table of the fixed 4001-point peak probe
is kept, read-only, and shared by every bump, which then only sums its
modes, in the same order, against it.

Every other abscissa array, the base and the dilated grids of a batch,
goes through ``qfisher_bump`` of the compiled kernels (``_kernels.c``,
whose C signature :mod:`qfisher._native` declares and binds): one C pass
that takes the same libm ``cos``/``sin`` values and makes the same IEEE
operations in the same order as the numpy table path, so its values are
that path's bits where numpy's float64 cos and sin are libm's.  An array
with as many abscissae as the current base grid has nodes is evaluated
through that grid's memo: at each node, the libm values of MEMO_SLOTS
abscissae seen there, keyed by their bits: the node's own, which every
bump revisits, and the latest others.  A dilated abscissa x_c / c / R_eff
lands within a few ulps of the base node's, so most of them repeat at
their node across a batch and find their values there.  A hit hands back the very doubles libm returned for those bits,
so the memo changes no value, whatever it holds; rescaling the base table
by 1/c instead would change the last bits.  One memo is alive at a time,
made at the first compiled evaluation on a base grid and dropped with it.

The choice of kernel is made once per process, at the first evaluation
off the probe: C when the library loads and its values for that draw on
the peak probe equal the numpy table's byte for byte, else numpy, which
stays the reference and tabulates every such array afresh, keeping none.
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
        probe = _probe_table()
        if u is probe.u:
            return _mode_sum(coef, probe)
        kernel = _compiled_bump(coef)
        if kernel is None:
            return _mode_sum(coef, _trig_table(u))
        src, out = np.ascontiguousarray(u), np.empty(u.shape)
        kernel(src.ctypes.data, src.size, coef_ptr, N_MODES, out.ctypes.data,
               *_memo_args(src.size))
        return out

    peak = float(np.max(np.abs(raw(_probe_table().u))))
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
    abscissae, taken with no memo, equal the numpy table's byte for byte."""
    if not _CHOICE:
        lib = _native.library()
        kernel = None if lib is None else lib.qfisher_bump
        if kernel is not None:
            table = _probe_table()
            got = np.empty(table.u.size)
            kernel(table.u.ctypes.data, table.u.size, coef.ctypes.data, N_MODES,
                   got.ctypes.data, *_NO_MEMO)
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


def _trig_table(u: np.ndarray) -> _TrigTable:
    """A table of u built afresh."""
    inside = np.abs(u) < 1.0
    u_in = u[inside]
    phase = np.multiply.outer(np.arange(1, N_MODES + 1) * np.pi, u_in)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)  # phase is not needed again
    return _TrigTable(u, inside, cos, sin, np.cos(np.pi * u_in / 2.0) ** 2)


@functools.lru_cache(maxsize=1)
def _probe_table() -> _TrigTable:
    """The kept, read-only table of the 4001 abscissae on [-1, 1] the peak
    of every bump is taken over."""
    table = _trig_table(np.linspace(-1.0, 1.0, 4001))
    for a in table:  # made here, so no caller holds them
        a.flags.writeable = False
    return table


#: slots per node of the bump memo, 144 bytes each.  On the criteria 6-8
#: batches 4 slots leave 29 % of the lookups missing, 5 slots 23 % (about
#: 4 % off certify's wall time against 4), 6 slots 19 % and 8 slots 16 %;
#: 5 is the most that keeps the memo under 3 MB at 4001 nodes.
MEMO_SLOTS = 5
#: qfisher_bump's memo arguments for an evaluation without a memo
_NO_MEMO = (0, None, None, None, None)


class _Memo:
    """qfisher_bump's memo for arrays of n abscissae (see ``_kernels.c``):
    per node, MEMO_SLOTS keys (NaN until filled, so no abscissa inside the
    window matches one) and their libm rows, and the next slot to fill; and
    the lookup and miss counts."""

    def __init__(self, n: int):
        self.keys = np.full((n, MEMO_SLOTS), np.nan)
        self.rows = np.empty((n, MEMO_SLOTS, 2 * N_MODES + 1))
        self.cursor = np.zeros(n, dtype=np.uint8)
        self.counts = np.zeros(2, dtype=np.int64)
        self.args = (MEMO_SLOTS, self.keys.ctypes.data, self.rows.ctypes.data,
                     self.cursor.ctypes.data, self.counts.ctypes.data)


#: the bump memo of the current base grid, under its node count: one entry
#: at most, set to None by _base_grid and made by the first compiled
#: evaluation of an array of that many abscissae
_MEMO: dict[int, _Memo | None] = {}


def _memo_args(n: int) -> tuple:
    """qfisher_bump's memo arguments for n abscissae: the current base
    grid's memo when the grid has n nodes, made here at its first use, else
    no memo."""
    if n not in _MEMO:
        return _NO_MEMO
    memo = _MEMO[n]
    if memo is None:
        memo = _MEMO[n] = _Memo(n)
    return memo.args


def bump_memo_counts() -> tuple[int, int]:
    """(lookups, misses) of the current base grid's bump memo since it was
    made: one lookup per abscissa inside the window, a miss where libm ran.
    (0, 0) while there is no memo."""
    memo = next(iter(_MEMO.values()), None)
    return (0, 0) if memo is None else (int(memo.counts[0]), int(memo.counts[1]))


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
    if constraint not in ("moment", "entropy_power"):
        raise ValueError(f"unknown constraint {constraint!r}")
    r_eff, ax, pdf_vals, bump_vals = _base_samples(p, bump, count)

    def raw(x):
        return pdf(p, x) * (1.0 + amplitude * bump(x / r_eff))

    base = normalize(GridDensity(ax, pdf_vals * (1.0 + amplitude * bump_vals)))
    if constraint == "moment":
        current = moment_abs(base, p.alpha)
        c = (target / current) ** (1.0 / p.alpha)
    else:
        current = entropy_power(base, p.q)
        c = np.sqrt(target / current)
    ax_c = Axis(ax.lo * c, ax.hi * c, count)
    # exact dilation: f_c(x) = f(x/c)/c, evaluated from the callable on the
    # scaled grid (no interpolation)
    values = raw(ax_c.nodes() / c) / c
    return normalize(GridDensity(ax_c, values))


@functools.lru_cache(maxsize=1)
def _base_grid(p: QGaussianParams, count: int):
    """(R_eff, base axis, pdf(p, nodes), nodes / R_eff) of a reference and
    a node count, the arrays read-only.  A new base grid drops the bump
    memo of the one before and makes room for its own."""
    r_eff = reach_radius(p, BUMP_TAIL)
    r_grid = reach_radius(p) * 1.05
    ax = Axis(-r_grid, r_grid, count)
    nodes = ax.nodes()
    _MEMO.clear()
    _MEMO[count] = None
    return r_eff, ax, _read_only(pdf(p, nodes)), _read_only(nodes / r_eff)


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
