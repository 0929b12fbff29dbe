"""Scalar information functionals on grid densities.

Covers the information generating function M_q = int f^q, Tsallis and Renyi
entropies, the entropy power N_q, the two generalized Fisher functionals

    phi(beta, q)[f] = int f^(beta(q-1)+1) (|grad f| / f)^beta dx
    I(beta, q)[f]   = phi(beta, q)[f] / M_q[f]^beta

and the escort transform g ~ f^(1/q).  All integrals are composite Simpson
on the density's grid; nodes where f = 0 contribute exactly 0 (the integrand
is evaluated as f^(beta(q-1)+1-beta) |grad f|^beta to avoid 0/0 at support
boundaries).

The integrands of M_q, the Shannon entropy and phi are each written once,
elementwise over any shape, and the public functions of one density
integrate them on its grid; the diffusion solver integrates the same
integrands of a block of logged densities along its rows, each row with the
bits these functions give on it alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Axis, GridDensity, gradient, integrate, normalize

#: |q - 1| below this dispatches to the q = 1 (Shannon) branches, where the
#: (M_q - 1)/(1 - q) form loses precision catastrophically.
Q_ONE_WINDOW = 1e-6


def _masked_power(values: np.ndarray, mask: np.ndarray, expo: float) -> np.ndarray:
    """values^expo where mask holds, 0 elsewhere (handles expo <= 0 and
    values = 0), elementwise over any shape.  A mask that holds everywhere
    skips the compaction and scatter; each element keeps its bits."""
    if _whole(mask):
        return values ** expo
    out = np.zeros_like(values)
    out[mask] = values[mask] ** expo
    return out


def _whole(mask: np.ndarray) -> bool:
    return np.count_nonzero(mask) == mask.size


def m_q(f: GridDensity, q: float) -> float:
    """Information generating function M_q = int f^q dx (M_0 = |support|)."""
    if not q >= 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return integrate(f, _masked_power(f.values, f.support_mask, q))


def _shannon_integrand(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """-values ln values where mask holds, 0 elsewhere, elementwise over any
    shape; a whole support skips the compaction and scatter, as in
    :func:`_masked_power`."""
    if _whole(mask):
        return -values * np.log(values)
    arr = np.zeros_like(values)
    arr[mask] = -values[mask] * np.log(values[mask])
    return arr


def shannon_entropy(f: GridDensity) -> float:
    """Differential entropy -int f ln f (0 ln 0 = 0)."""
    return integrate(f, _shannon_integrand(f.values, f.support_mask))


def _tsallis(mq, q: float):
    """S_q = (M_q - 1)/(1 - q) of one M_q or of an array of them."""
    return (mq - 1.0) / (1.0 - q)


def tsallis_entropy(f: GridDensity, q: float, mq: float | None = None) -> float:
    """S_q = (M_q - 1)/(1 - q), with M_q from `mq` if the caller has it
    already; Shannon entropy in the q -> 1 limit."""
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return shannon_entropy(f)
    if mq is None:
        mq = m_q(f, q)
    return _tsallis(mq, q)


def renyi_entropy(f: GridDensity, q: float, mq: float | None = None) -> float:
    """H_q = ln(M_q)/(1 - q), with M_q from `mq` if the caller has it
    already; Shannon entropy at q = 1."""
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return shannon_entropy(f)
    if mq is None:
        mq = m_q(f, q)
    return float(np.log(mq) / (1.0 - q))


def entropy_power(f: GridDensity, q: float, mq: float | None = None) -> float:
    """N_q = M_q^((2/n)/(1-q)) = exp((2/n) H_q), n = f.dim.

    Both expressions are evaluated from one M_q (`mq`, if the caller has
    it already) and must agree to 1e-10 relative.
    """
    n = f.dim
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return float(np.exp(2.0 / n * shannon_entropy(f)))
    if mq is None:
        mq = m_q(f, q)
    via_m = mq ** (2.0 / n / (1.0 - q))
    via_h = float(np.exp(2.0 / n * (np.log(mq) / (1.0 - q))))  # exp((2/n) H_q)
    if abs(via_m - via_h) > 1e-10 * max(abs(via_m), abs(via_h)):
        raise ArithmeticError(
            f"entropy-power expressions disagree: {via_m!r} vs {via_h!r}"
        )  # pragma: no cover
    return float(via_m)


def _phi_integrand(values: np.ndarray, mask: np.ndarray, g: np.ndarray, q: float,
                   beta: float) -> np.ndarray:
    """f^(beta(q-1)+1-beta) |g|^beta on the support, 0 outside, elementwise
    over any shape, with g the gradient of the values f."""
    # overflow to inf is the divergence signal handled by the callers
    with np.errstate(over="ignore", invalid="ignore"):
        w = _masked_power(values, mask, beta * (q - 1.0) + 1.0 - beta)
        return w * (g * g) ** (beta / 2.0)


def phi_fisher(f: GridDensity, q: float, beta: float) -> float:
    """Generalized Fisher functional phi(beta, q)[f]; nonnegative.

    The classical Fisher information int (f')^2 / f is the case
    q = 1, beta = 2.
    """
    if not beta > 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not -np.inf < q < np.inf:
        raise ValueError(f"q must be finite, got {q}")
    return integrate(f, _phi_integrand(f.values, f.support_mask, gradient(f), q, beta))


def i_fisher(f: GridDensity, q: float, beta: float, mq: float | None = None) -> float:
    """Normalized Fisher functional I(beta, q) = phi(beta, q) / M_q^beta,
    with M_q from `mq` if the caller has it already.

    At q = 1, M_1 = 1 for any normalized density, so I coincides with phi
    exactly (the quadrature reading of M_1 is not re-applied).
    """
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return phi_fisher(f, q, beta)
    phi = phi_fisher(f, q, beta)  # checks q and beta before m_q's work
    return phi / (m_q(f, q) if mq is None else mq) ** beta


@dataclass
class PhiDiagnostic:
    value: float
    diverged: bool


def phi_fisher_refined(f: GridDensity, q: float, beta: float) -> PhiDiagnostic:
    """phi with a divergence diagnostic: the integral is re-evaluated on the
    2x and 4x coarsened grids; if the three readings have not stabilized
    (max/min spread above 1.5), the boundary integrand is treated
    as non-integrable on this family and flagged divergent instead of
    trusted.  (For a divergent edge power the value is dominated by the
    distance of the nearest node to the singularity, which moves erratically
    across coarsenings; a convergent integral agrees across all three.)

    The grid is halved twice, so its node count must be 4k + 1 with k >= 2:
    each coarsening is then a Simpson grid of >= 3 nodes.
    """
    a = f.axis
    if a.count < 9 or (a.count - 1) % 4:
        raise ValueError(f"the refinement diagnostic needs a count = 4k + 1 with k >= 2, "
                         f"got {a.count}")
    vals = []
    for stride in (4, 2, 1):
        sub = GridDensity(Axis(a.lo, a.hi, (a.count - 1) // stride + 1), f.values[::stride], f.dim)
        vals.append(phi_fisher(sub, q, beta))
    fine = vals[-1]
    top, bot = max(vals), min(vals)
    if not all(np.isfinite(v) for v in vals):
        diverged = True
    elif top == 0.0:
        diverged = False
    else:
        diverged = bot <= 0.0 or top / bot > 1.5
    return PhiDiagnostic(value=float(fine), diverged=bool(diverged))


class EscortDivergenceError(ValueError):
    pass


def escort(f: GridDensity, q: float) -> GridDensity:
    """Escort distribution g ~ f^(1/q), renormalized.

    Raises EscortDivergenceError when the grid visibly truncates a
    non-integrable f^(1/q) tail (f has decayed at the domain edge but f^(1/q)
    has not).
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1.0:
        return normalize(f)
    w = _masked_power(f.values, f.support_mask, 1.0 / q)
    _check_escort_tail(f, w)
    return normalize(GridDensity(f.axis, w, f.dim))


def escort_inverse(g: GridDensity, q: float) -> GridDensity:
    """Inverse escort map f ~ g^q, renormalized (round-trips with escort)."""
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1.0:
        return normalize(g)
    return normalize(GridDensity(g.axis, _masked_power(g.values, g.support_mask, q), g.dim))


def _check_escort_tail(f: GridDensity, w: np.ndarray):
    """Heuristic truncation check: if f itself carries no boundary mass (a
    genuine tail, not a by-design compact box) while f^(1/q) is still large at
    the boundary, the escort integral diverges off-grid.  The boundary is
    both ends of a line and the far end r = R of a radial axis, where both
    are read as mass per unit radius, r^(n-1) times the value."""
    fv = f.values
    if fv.max() <= 0 or w.max() <= 0:
        raise ValueError("escort of an identically-zero density")
    if f.dim == 1:
        ends, label = [0, -1], "f^(1/q)"
    else:
        ends, label = [-1], "r^(n-1) f^(1/q)"
        r_pow = f.axis.nodes() ** (f.dim - 1)
        fv, w = fv * r_pow, w * r_pow
    f_edge = float(fv[ends].max())
    w_edge = float(w[ends].max())
    f_peak = float(fv.max())
    w_peak = float(w.max())
    if f_edge < 1e-10 * f_peak and w_edge > 1e-6 * w_peak:
        raise EscortDivergenceError(
            "escort integral does not converge on this grid: "
            f"{label} at the domain edge is {w_edge / w_peak:.3g} of its peak "
            f"while f itself has decayed to {f_edge / max(f_peak, 1e-300):.3g}"
        )


def recenter(f: GridDensity):
    """Shift the axis so the density has zero mean, unless |mean| <= 1e-9;
    returns (density, shift applied).  A radial density is centred by
    construction."""
    if f.dim > 1:
        return f, 0.0
    mu = integrate(f, f.axis.nodes() * f.values)
    if abs(mu) <= 1e-9:
        return f, 0.0
    return GridDensity(Axis(f.axis.lo - mu, f.axis.hi - mu, f.axis.count), f.values), mu


def moment_abs(f: GridDensity, alpha: float) -> float:
    """E ||X||^alpha on the grid."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    return integrate(f, _abs_power(f.axis, alpha) * f.values)


@functools.lru_cache(maxsize=4)
def _abs_power(axis: Axis, alpha: float) -> np.ndarray:
    """|x|^alpha at the nodes, as (x x)^(alpha/2); cached for the last four
    (axis, alpha) pairs (a perturbation batch's base grid serves every
    amplitude) and read-only."""
    x = axis.nodes()
    out = (x * x) ** (alpha / 2.0)
    out.flags.writeable = False
    return out
