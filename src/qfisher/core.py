"""Grid densities, composite-Simpson quadrature, and finite differences.

Everything downstream (entropies, Fisher functionals, the diffusion solver,
the estimation bounds) consumes densities sampled on uniform tensor grids.
Dimensions 1 and 2 get full tensor grids; higher dimensions are handled only
through radially symmetric reduction (see :func:`integrate_radial`).
"""

from __future__ import annotations

import functools
import json
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
        if min(self.identity_rel, self.inequality_slack) <= 0:
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
    """Nonnegative function sampled on a uniform tensor grid.

    values[i, j, ...] is the density at (axes[0].nodes()[i], axes[1].nodes()[j], ...).
    The support mask is exactly {values > 0}.
    """

    axes: tuple[Axis, ...]
    values: np.ndarray
    support_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.axes, Axis):
            self.axes = (self.axes,)
        self.axes = tuple(self.axes)
        if len(self.axes) not in (1, 2):
            raise ValueError("tensor grids support dim 1 or 2 only; use integrate_radial for n > 2")
        self.values = np.asarray(self.values, dtype=float)
        shape = tuple(a.count for a in self.axes)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {shape}")
        _check_finite(self.values, self.axes)
        if np.any(self.values < 0):
            idx = tuple(np.argwhere(self.values < 0)[0])
            raise ValueError(f"negative density value {self.values[idx]} at node {idx}")
        self.support_mask = self.values > 0

    @property
    def dim(self) -> int:
        return len(self.axes)

    def node_coords(self) -> list[np.ndarray]:
        """Meshgrid ('ij' indexing) of node coordinates, one array per axis."""
        return list(np.meshgrid(*[a.nodes() for a in self.axes], indexing="ij"))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "axes": [{"lo": a.lo, "hi": a.hi, "count": a.count} for a in self.axes],
            "values": self.values.ravel(order="C").tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridDensity":
        axes = tuple(Axis(a["lo"], a["hi"], a["count"]) for a in d["axes"])
        shape = tuple(a.count for a in axes)
        values = np.asarray(d["values"], dtype=float).reshape(shape, order="C")
        return cls(axes, values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "GridDensity":
        return cls.from_dict(json.loads(s))


def _check_finite(arr, axes):
    if np.all(np.isfinite(arr)):
        return
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
    coords = tuple(float(a.nodes()[i]) for a, i in zip(axes, idx))
    raise NonFiniteError(f"non-finite value {arr[idx]} at node index {idx}, x = {coords}")


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


def quad_weights(axes) -> np.ndarray:
    """Tensor-product Simpson weights matching the grid shape."""
    w = simpson_weights(axes[0])
    for a in axes[1:]:
        w = np.multiply.outer(w, simpson_weights(a))
    return w


def integrate(f: GridDensity, integrand=None) -> float:
    """Composite-Simpson integral over the grid of `f`.

    With `integrand=None` integrates the density itself.  `integrand` may be
    an array on the same grid, or a callable of the node coordinate arrays
    (one positional argument per axis).
    """
    if integrand is None:
        arr = f.values
    elif callable(integrand):
        arr = np.asarray(integrand(*f.node_coords()), dtype=float)
        arr = np.broadcast_to(arr, f.values.shape)
    else:
        arr = np.asarray(integrand, dtype=float)
        if arr.shape != f.values.shape:
            raise ValueError(f"integrand shape {arr.shape} != grid shape {f.values.shape}")
    _check_finite(arr, f.axes)
    return float(np.sum(quad_weights(f.axes) * arr))


def sphere_surface(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 pi^(n/2) / Gamma(n/2))."""
    from scipy.special import gamma

    return float(2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0))


def integrate_radial(r_axis: Axis, values: np.ndarray, dim: int) -> float:
    """Integral over R^dim of a radially symmetric integrand sampled on r >= 0,
    i.e. surface(dim) * int values(r) r^(dim-1) dr by composite Simpson."""
    if r_axis.lo < 0:
        raise ValueError("radial axis must start at r >= 0")
    values = np.asarray(values, dtype=float)
    _check_finite(values, (r_axis,))
    r = r_axis.nodes()
    w = simpson_weights(r_axis)
    return float(sphere_surface(dim) * np.sum(w * values * r ** (dim - 1)))


def gradient(f: GridDensity) -> list[np.ndarray]:
    """Per-axis gradient: central differences in the interior, second-order
    one-sided at domain edges, one-sided from the interior at the boundary of
    the support.  Nodes outside the support get gradient 0.

    At a support edge away from the domain edges the one-sided difference
    is 2nd order where two interior neighbours exist, 1st order where one
    does, and 0 at an isolated support node.  Only the nodes where the
    support mask changes along the axis are visited, in 1-D and 2-D alike.
    """
    out = []
    for ax in range(f.dim):
        g = np.gradient(f.values, f.axes[ax].step, axis=ax)
        _fix_support_edges(f.values, g, f.support_mask, f.axes[ax].step, ax)
        out.append(g)
    return out


def _fix_support_edges(v, g, mask, h, ax):
    """Overwrite, in g, the differences straddling the support boundary
    along axis `ax` by one-sided ones from the interior side, and zero g
    outside the support."""
    v, g, m = (a.swapaxes(0, ax) for a in (v, g, mask))
    n = m.shape[0]
    # the mask and two False rows, n and n + 1, which -1 and -2 also reach
    m_pad = np.zeros((n + 2,) + m.shape[1:], bool)
    m_pad[:n] = m
    # where the mask changes between nodes i and i + 1, the edge node e is
    # the one in the support, and its interior lies in direction d (never
    # the domain's first or last node: np.gradient is one-sided there)
    i, *rest = np.nonzero(m[:-1] != m[1:])
    d = np.where(m[(i, *rest)], -1, 1)
    e = i + (d > 0)
    near, far = m_pad[(e + d, *rest)], m_pad[(e + 2 * d, *rest)]

    # 2nd order: d (-3 v[e] + 4 v[e + d] - v[e + 2d]) / 2h with d folded
    # into the coefficients, which rounds exactly as each edge's own stencil
    k = near & far
    at, dk = (e[k], *(r[k] for r in rest)), d[k]
    g[at] = (-3.0 * dk * v[at] + 4.0 * dk * v[(at[0] + dk, *at[1:])]
             + -dk * v[(at[0] + 2 * dk, *at[1:])]) / (2.0 * h)
    # 1st order: (v[lo + 1] - v[lo]) / h with lo the lower of the two nodes
    k = near & ~far
    lo = (np.minimum(e[k], e[k] + d[k]), *(r[k] for r in rest))
    g[(e[k], *lo[1:])] = (v[(lo[0] + 1, *lo[1:])] - v[lo]) / h
    # an isolated support node, taken as a right edge
    k = ~near & (d < 0)
    g[(e[k], *(r[k] for r in rest))] = 0.0
    g[~m] = 0.0


def normalize(f: GridDensity) -> GridDensity:
    """Rescale so the Simpson integral is 1 (within EPS_NORM)."""
    total = integrate(f)
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"cannot normalize density with total mass {total}")
    out = GridDensity(f.axes, f.values / total)
    if abs(integrate(out) - 1.0) > EPS_NORM:
        raise ValueError("normalization failed to reach unit mass")  # pragma: no cover
    return out


def density_from_callable(axes, fn, normalized=False) -> GridDensity:
    """Sample a nonnegative callable on the grid; optionally normalize."""
    axes = (axes,) if isinstance(axes, Axis) else tuple(axes)
    mesh = np.meshgrid(*[a.nodes() for a in axes], indexing="ij")
    values = np.asarray(fn(*mesh), dtype=float)
    values = np.broadcast_to(values, tuple(a.count for a in axes)).copy()
    f = GridDensity(axes, values)
    return normalize(f) if normalized else f
