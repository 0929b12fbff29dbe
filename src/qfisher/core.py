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
import importlib.util
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

#: normalization tolerance after `normalize`
EPS_NORM = 1e-10
#: how far the unperturbed q-Gaussian's q-Cramer-Rao product may read from n,
#: or its Stam ratio from 1 (acceptance criteria 6 and 7, the qcr and stam commands)
EQUALITY_TOL = 1e-4


class NonFiniteError(ValueError):
    """A grid array holds NaN or inf (raised by the finiteness checks)."""


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by the verification reports.

    identity_rel:   relative tolerance for identity checks.  Its only reader
                    is `debruijn_check`, which every caller runs at
                    `for_pde()`'s 1e-2, so the 1e-6 default is read nowhere.
                    Folding the field waits for ROADMAP item 1(c), since
                    `perfbench/workloads.py` calls `Tolerances.for_pde()`.
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
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError(f"axis bounds must be finite with lo < hi, got [{self.lo}, {self.hi}]")
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
    return float(_integrals(f.weights(), arr, f.axis))


def _integrals(w: np.ndarray, arr: np.ndarray, axis: Axis):
    """The weighted sums of arr, one row (n,) or a block of rows (k, n) on
    `axis`, with quadrature weights w: one numpy reduction along the last
    axis, whose pairwise sum of each row has the bits of that row's own
    1-D sum."""
    with np.errstate(invalid="ignore", over="ignore"):
        total = np.add.reduce(w * arr, axis=-1)
    # a NaN or inf entry makes its row's sum NaN or inf, quietly; only then
    # is the row scanned, to name the node (an overflowing finite sum is
    # returned)
    if arr.ndim == 1:
        if not math.isfinite(total):
            _check_finite(arr, axis)
    else:
        for row in arr[~np.isfinite(total)]:
            _check_finite(row, axis)
    return total


def scipy_module(name: str):
    """The compiled scipy module `name`, such as "scipy.special._ufuncs",
    imported without running its package's `__init__`: the one route by
    which qfisher reaches scipy.

    A package's `__init__` can cost far more than the routine wanted:
    scipy.special's loads scipy's array-API layer, which clones numpy and
    with it loads numpy.f2py, numpy.testing and numpy.ma (about 0.2-0.3 s
    per process), and scipy.integrate's and scipy.optimize's load the rest
    of their packages.  So the module is imported on its own, under a
    package module made from the spec (`find_spec` imports scipy itself)
    and left unexecuted, which sits in sys.modules only for that import.
    The module is the very object a later import of the package uses: that
    import runs the real `__init__` and finds it in sys.modules.  A module
    already loaded is returned as it is, and a scipy whose layout refuses
    the direct load has the package imported whole first."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0]
    if package not in sys.modules:
        try:
            stub = importlib.util.module_from_spec(importlib.util.find_spec(package))
            sys.modules[package] = stub
            try:
                return importlib.import_module(name)
            finally:
                if sys.modules.get(package) is stub:
                    del sys.modules[package]
        except (ImportError, AttributeError):
            importlib.import_module(package)
    return importlib.import_module(name)


def special_functions():
    """scipy.special's compiled ufuncs (beta, gamma, betaincinv,
    gammaincinv, ...): the objects that `scipy.special` exposes (with
    SCIPY_ARRAY_API unset; set, the package wraps them for other array
    libraries), without the package's array-API layer."""
    return scipy_module("scipy.special._ufuncs")


def quad(f, a: float, b: float, limit: int) -> float:
    """Integral of f over the finite range [a, b], a < b, by QUADPACK's
    dqagse in at most `limit` subintervals, to scipy's default tolerances:
    the routine that `scipy.integrate.quad(f, a, b, limit=limit)` calls,
    so its value to the bit.  QUADPACK's trouble codes (ier != 0) warn,
    with a UserWarning whose message starts "quad:", where scipy warns
    with its IntegrationWarning, a UserWarning too."""
    value, _, ier = scipy_module("scipy.integrate._quadpack")._qagse(
        f, a, b, (), 0, 1.49e-8, 1.49e-8, limit)
    if ier:
        warnings.warn(f"quad: QUADPACK ier = {ier} on [{a!r}, {b!r}] with limit {limit}: "
                      "the value may miss its tolerance", UserWarning, stacklevel=2)
    return value


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of f in [a, b], f(a) and f(b) of opposite signs, by Brent's
    method in at most 100 iterations: the routine that
    `scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)` calls, so its
    root to the bit.  As there, a NaN function value and a bracket whose
    ends have one sign raise ValueError, and no convergence RuntimeError."""

    def checked(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return scipy_module("scipy.optimize._zeros")._brentq(
        checked, a, b, xtol, rtol, 100, (), False, True)


def sphere_surface(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 pi^(n/2) / Gamma(n/2)).

    n = 1 needs no scipy: 2 sqrt(pi) / Gamma(1/2) rounds to exactly 2.0.
    Larger n keep scipy's gamma, whose bits math.gamma does not match
    (n = 3 moves by one ulp)."""
    if n == 1:
        return 2.0
    return float(2.0 * np.pi ** (n / 2.0) / special_functions().gamma(n / 2.0))


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
    return _gradient(f.values, f.support_mask, f.axis.step)


def _gradient(v: np.ndarray, m: np.ndarray, h: float) -> np.ndarray:
    """:func:`gradient` along the last axis of v, with support mask m and
    step h: each row's result has the bits of that row's own gradient."""
    # np.gradient(v, h) for a uniform step, operation for operation
    n = v.shape[-1]
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    # the one-sided ends: nodes 0 and n - 1 from nodes (1, 0) and (n - 1, n - 2)
    g[..., ::n - 1] = (v[..., 1::n - 2] - v[..., :n - 1:n - 2]) / h
    if np.count_nonzero(m) < m.size:  # a support with edges
        _fix_support_edges(v, g, m, h)
    return g


def _fix_support_edges(v, g, m, h):
    """Overwrite, in g, the differences straddling the support boundary by
    one-sided ones from the interior side, and zero g outside the support,
    in each row along the last axis."""
    n = m.shape[-1]
    vf, gf, mf = v.reshape(-1), g.reshape(-1), m.reshape(-1)
    # where the mask changes between nodes i and i + 1 of a row, the edge
    # node e is the one in the support, and its interior lies in direction
    # d (never the row's first or last node: those are one-sided already)
    for i in np.flatnonzero(mf[:-1] != mf[1:]).tolist():
        if i % n == n - 1:
            continue  # i and i + 1 are the ends of two rows
        d = -1 if mf[i] else 1
        e = i + (d > 0)
        c = e % n
        near = 0 <= c + d < n and mf[e + d]
        if near and 0 <= c + 2 * d < n and mf[e + 2 * d]:
            # 2nd order: d (-3 v[e] + 4 v[e + d] - v[e + 2d]) / 2h with d
            # folded into the coefficients, which rounds exactly as each
            # edge's own stencil
            gf[e] = (-3.0 * d * vf[e] + 4.0 * d * vf[e + d] + -d * vf[e + 2 * d]) / (2.0 * h)
        elif near:
            # 1st order: (v[lo + 1] - v[lo]) / h with lo the lower node
            lo = min(e, e + d)
            gf[e] = (vf[lo + 1] - vf[lo]) / h
        elif d < 0:
            # an isolated support node, taken as a right edge
            gf[e] = 0.0
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
