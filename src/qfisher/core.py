"""Grid densities, composite-Simpson quadrature, and finite differences.

Everything downstream (entropies, Fisher functionals, the diffusion solver,
the estimation bounds) consumes densities sampled on one uniform axis.  A
density of dimension 1 lives on the line; one of dimension n >= 2 is
radially symmetric on R^n and sampled at radii on [0, R], its quadrature
weights carrying the surface factor |S^(n-1)| r^(n-1).  Every functional
then runs the same 1-D code for every n: the weight is 0 at r = 0, so the
centre needs no special case.

Values are checked once, when a GridDensity is built: finite and
nonnegative.  `integrate` takes the weighted sum first and scans its
integrand only when that sum is not finite, which any NaN or inf entry
makes it (at r = 0 too, where 0 * inf is NaN), so it names the same node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

#: normalization tolerance after `normalize`
EPS_NORM = 1e-10


class NonFiniteError(ValueError):
    """A grid array holds NaN or inf (raised by the finiteness checks)."""


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by the verification reports.

    identity_rel:   relative tolerance for identity checks (1e-2 for checks
                    coupled to the PDE solver, 1e-6 for pure quadrature).
    inequality_slack: additive slack for inequality checks near equality.
    """

    identity_rel: float = 1e-6
    inequality_slack: float = 1e-9

    def __post_init__(self):
        # > 0 tested directly, so that NaN fails too
        if not (self.identity_rel > 0 and self.inequality_slack > 0):
            raise ValueError("tolerances must be strictly positive")

    @classmethod
    def for_pde(cls) -> "Tolerances":
        return cls(identity_rel=1e-2)


@dataclass(frozen=True)
class Axis:
    """Uniform 1-D grid: `count` nodes on [lo, hi], count odd so composite
    Simpson applies directly."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"axis bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 3 or self.count % 2 == 0:
            raise ValueError(f"axis count must be odd and >= 3, got {self.count}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class GridDensity:
    """Nonnegative function sampled on a uniform axis.

    dim = 1: values[i] is the density at the abscissa axis.nodes()[i].
    dim = n >= 2: a radially symmetric density on R^n, values[i] its value
    at the radius axis.nodes()[i]; the axis is [0, R].
    The support mask is exactly {values > 0}.
    """

    axis: Axis
    values: np.ndarray
    dim: int = 1
    support_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.dim > 1 and self.axis.lo != 0:
            raise ValueError(
                f"a radial axis (dim {self.dim}) must start at r = 0, got lo = {self.axis.lo}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.axis.count,):
            raise ValueError(f"values shape {self.values.shape} != grid shape {(self.axis.count,)}")
        # min >= 0 and max < inf fail for any NaN, inf or negative value;
        # only then are the values scanned for the node to name
        if not (np.minimum.reduce(self.values) >= 0 and np.maximum.reduce(self.values) < np.inf):
            _check_finite(self.values, self.axis)
            idx = tuple(int(i) for i in np.argwhere(self.values < 0)[0])
            raise ValueError(f"negative density value {self.values[idx]} at node {idx}")
        self.support_mask = self.values > 0

    def weights(self) -> np.ndarray:
        """Quadrature weights: composite Simpson on the line, times
        |S^(n-1)| r^(n-1) for a radial density."""
        w = simpson_weights(self.axis)
        if self.dim == 1:
            return w
        return w * sphere_surface(self.dim) * self.axis.nodes() ** (self.dim - 1)


def _check_finite(arr, axis):
    if np.all(np.isfinite(arr)):
        return
    i = int(np.flatnonzero(~np.isfinite(arr))[0])
    x = float(axis.nodes()[i])
    raise NonFiniteError(f"non-finite value {arr[i]} at node index {(i,)}, x = {(x,)}")


@functools.lru_cache(maxsize=3)
def simpson_weights(axis: Axis) -> np.ndarray:
    """Composite Simpson weights (h/3)*[1, 4, 2, 4, ..., 2, 4, 1].

    Cached for the last three axes (a perturbed density's base and dilated
    grids, and the grid it is compared with) and read-only: one array
    serves every integral on a grid.
    """
    w = np.full(axis.count, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= axis.step / 3.0
    w.flags.writeable = False
    return w


def integrate(f: GridDensity, integrand=None) -> float:
    """Integral over the line (dim 1) or over R^dim (radial) of the density
    of `f` or, with `integrand` given, of that array on its grid."""
    if integrand is None:
        arr = f.values
    else:
        arr = np.asarray(integrand, dtype=float)
        if arr.shape != f.values.shape:
            raise ValueError(f"integrand shape {arr.shape} != grid shape {f.values.shape}")
    # a NaN or inf entry makes the sum NaN or inf, quietly; only then is
    # arr scanned, to name the node (an overflowing finite sum is returned)
    with np.errstate(invalid="ignore", over="ignore"):
        total = float(np.add.reduce(f.weights() * arr))
    if not np.isfinite(total):
        _check_finite(arr, f.axis)
    return total


def sphere_surface(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 pi^(n/2) / Gamma(n/2)).

    n = 1 needs no scipy: 2 sqrt(pi) / Gamma(1/2) rounds to exactly 2.0.
    Larger n keep scipy's gamma, whose bits math.gamma does not match
    (n = 3 moves by one ulp)."""
    if n == 1:
        return 2.0
    from scipy.special import gamma

    return float(2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0))


def gradient(f: GridDensity) -> np.ndarray:
    """df/dx (df/dr for a radial density): central differences in the
    interior, first-order one-sided at the domain ends, one-sided from the
    interior at the boundary of the support.  Nodes outside the support get
    gradient 0.

    At a support edge away from the domain ends the one-sided difference
    is 2nd order where two interior neighbours exist, 1st order where one
    does, and 0 at an isolated support node.  Only the nodes where the
    support mask changes are visited.  At r = 0 the one-sided value stands
    in for df/dr(0) = 0; its quadrature weight is 0.
    """
    v, h = f.values, f.axis.step
    # np.gradient(v, h) for a uniform step, operation for operation
    g = np.empty_like(v)
    g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    g[0] = (v[1] - v[0]) / h
    g[-1] = (v[-1] - v[-2]) / h
    _fix_support_edges(v, g, f.support_mask, h)
    return g


def _fix_support_edges(v, g, m, h):
    """Overwrite, in g, the differences straddling the support boundary by
    one-sided ones from the interior side, and zero g outside the support."""
    n = m.size
    # where the mask changes between nodes i and i + 1, the edge node e is
    # the one in the support, and its interior lies in direction d (never
    # the domain's first or last node: those are one-sided already)
    for i in np.flatnonzero(m[:-1] != m[1:]).tolist():
        d = -1 if m[i] else 1
        e = i + (d > 0)
        near = 0 <= e + d < n and m[e + d]
        if near and 0 <= e + 2 * d < n and m[e + 2 * d]:
            # 2nd order: d (-3 v[e] + 4 v[e + d] - v[e + 2d]) / 2h with d
            # folded into the coefficients, which rounds exactly as each
            # edge's own stencil
            g[e] = (-3.0 * d * v[e] + 4.0 * d * v[e + d] + -d * v[e + 2 * d]) / (2.0 * h)
        elif near:
            # 1st order: (v[lo + 1] - v[lo]) / h with lo the lower node
            lo = min(e, e + d)
            g[e] = (v[lo + 1] - v[lo]) / h
        elif d < 0:
            # an isolated support node, taken as a right edge
            g[e] = 0.0
    g[~m] = 0.0


def normalize(f: GridDensity) -> GridDensity:
    """Rescale so the Simpson integral is 1 (within EPS_NORM)."""
    total = integrate(f)
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"cannot normalize density with total mass {total}")
    out = GridDensity(f.axis, f.values / total, f.dim)
    if abs(integrate(out) - 1.0) > EPS_NORM:
        raise ValueError("normalization failed to reach unit mass")  # pragma: no cover
    return out


def density_from_callable(axis: Axis, fn) -> GridDensity:
    """Sample a nonnegative callable on the line (not normalized)."""
    values = np.broadcast_to(np.asarray(fn(axis.nodes()), dtype=float), (axis.count,)).copy()
    return GridDensity(axis, values)
