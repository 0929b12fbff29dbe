"""Every refusal of the library, one row each, and a check that each `raise`
of ValueError or of a subclass outside cli.py is reached by a row."""

import ast
import collections
import importlib
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

import qfisher
from qfisher import core
from qfisher.core import (Axis, GridDensity, NonFiniteError, Tolerances, brentq,
                          density_from_callable, integrate, normalize)
from qfisher.diffusion import (DiffusionState, StabilityError, TrajectoryLog, debruijn_check,
                               evolve, phi_monotonicity_check)
from qfisher.estimation import (EstimatorSpec, ParametricModel, SingularScoreError,
                                crm_bound_general, crm_bound_quadratic, crm_bound_scalar,
                                escort_pair_model, fisher_matrix_g, gaussian_location_model,
                                mc_error_moment, qcr_product, sample_mean_estimator, score_g)
from qfisher.inequalities import stam_ratio
from qfisher.info_measures import (EscortDivergenceError, escort, escort_inverse, i_fisher, m_q,
                                   moment_abs, phi_fisher, phi_fisher_refined)
from qfisher.perturb import perturbation_batch, perturbed_density
from qfisher.qgaussian import (DiffusionParams, QGaussianParams, barenblatt, barenblatt_density,
                               barenblatt_mass, closed_form_m_q, gamma_for_entropy_power,
                               gamma_for_moment, grid_density, moment_alpha)

NAN, INF = float("nan"), float("inf")
PACKAGE = Path(qfisher.__file__).parent
#: the modules whose refusals the rows must reach: all but the CLI, whose
#: refusals are the rows of tests/test_cli.py
MODULES = [importlib.import_module(f"qfisher.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))
           if path.stem not in ("__init__", "cli")]


def normal(x, mean=0.0):
    return np.exp(-(x - mean) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


def model(f, g=None, dim_theta=1, axis=Axis(-8.0, 8.0, 401), name=""):
    """The model of densities f(x, theta) and g(x, theta), g = f by default."""
    return ParametricModel(lambda c, th: f(c[0], th), lambda c, th: (g or f)(c[0], th), dim_theta,
                           axis, name=name)


def first_of_batch(*args):
    return next(perturbation_batch(*args))


# inputs, built before any row runs
F11, ZERO = (GridDensity(Axis(0.0, 1.0, 11), values) for values in (np.ones(11), np.zeros(11)))
NODE = np.arange(11)
GAUSS = density_from_callable(Axis(-10.0, 10.0, 801), normal)
OFF_CENTRE = density_from_callable(Axis(-9.0, 11.0, 2001), lambda x: normal(x, 1.0))
HEAVY = grid_density(QGaussianParams(0.55, 2.0, 1.0, 1), 4001)  # f^(1/3) has tail |x|^(-1.48)
P, P2 = QGaussianParams(2.0, 2.0, 1.0, 1), QGaussianParams(2.0, 2.0, 1.0, 2)
HEAT, PME = DiffusionParams(1.0, 2.0, 1), DiffusionParams(2.0, 2.0, 1)
PME_STATE = DiffusionState(PME, 1.0, barenblatt_density(PME, 1.0, Axis(-3.5, 3.5, 251)))
TIMES = np.array([0.0, 0.1, 0.2])
GAUSS_MODEL, MEAN = gaussian_location_model(n=1), sample_mean_estimator(n=1)
ESCORT_PAIR = escort_pair_model(2.0, 2.0)
X_OF_THETA_0 = EstimatorSpec(T=lambda c: c[0], h=lambda th: float(th[0]), alpha=2.0)
#: the normal about theta_0 + theta_1, with no sampler: its two scores are one
SUM_LOCATION = model(lambda x, th: normal(x, th[0] + th[1]), dim_theta=2,
                     axis=Axis(-11.0, 11.0, 4001), name="sum-location")
#: f is NaN off theta = 0, so every centred difference is NaN
NAN_OFF_THETA = model(lambda x, th: normal(x) if th[0] == 0.0 else np.full_like(x, NAN), normal)
NAN_OFF_THETA.check_normalized([np.array([0.0])])
#: f is infinite at the centre node for theta > 0, so the score is too
SPIKED = model(lambda x, th: np.where((x == 0.0) & (th[0] > 0), INF, normal(x, th[0])), normal)
#: f = g (1 + theta 1e200 x): the score 1e200 x is finite and of mean zero,
#: and its square overflows
OVERFLOWING = model(lambda x, th: normal(x) * (1.0 + th[0] * 1e200 * x), normal)


def fisher_matrix_g_over_ignored(m, theta):
    """fisher_matrix_g with numpy's overflow warning off, so that its own
    finiteness check is what refuses."""
    with np.errstate(over="ignore"):
        return fisher_matrix_g(m, theta)


#: every refusal whose check precedes the work it guards: (call, args,
#: message) or (call, args, message, exception type), the type ValueError
#: where none is named.  A message that ends in "..." gives its start.  A
#: None argument stands for a bump or rng that the call must not touch.
REFUSALS = [
    # core: tolerances, axes, grid densities, integrals, Brent's method
    *[(Tolerances, args, "tolerances must be strictly positive")
      for args in ((0.0,), (NAN,), (1e-6, NAN))],
    (Axis, (0.0, 1.0, 10), "axis count must be odd and >= 3, got 10"),
    *[(Axis, (lo, hi, 11), f"axis bounds must be finite with lo < hi, got [{lo}, {hi}]")
      for lo, hi in ((1.0, 0.0), (0.0, INF), (-INF, 0.0), (NAN, 1.0), (0.0, NAN))],
    (GridDensity, (Axis(0.0, 2.0, 11), np.ones(11), 0), "dim must be >= 1, got 0"),
    *[(GridDensity, (Axis(lo, 2.0, 11), np.ones(11), 2),
       f"a radial axis (dim 2) must start at r = 0, got lo = {lo}") for lo in (-1.0, 0.5)],
    # dimension 3 is radial: one axis of radii, not a 5 x 5 x 5 tensor
    (GridDensity, (Axis(0.0, 1.0, 5), np.ones((5, 5, 5)), 3),
     "values shape (5, 5, 5) != grid shape (5,)"),
    *[(GridDensity, (F11.axis, np.select([NODE == 3, NODE == 8], [-2.0, -1.0], 1.0), dim),
       "negative density value -2.0 at node (3,)") for dim in (1, 2)],
    (GridDensity, (F11.axis, np.linspace(-0.1, 1.0, 11)), "negative density value -0.1 at node (0,)"),
    (GridDensity, (F11.axis, np.where(NODE == 4, NAN, 1.0)),
     "non-finite value nan at node index (4,), x = (0.4,)", NonFiniteError),
    (integrate, (F11, np.ones(7)), "integrand shape (7,) != grid shape (11,)"),
    (brentq, (lambda x: NAN, -1.0, 1.0, 1e-15, 1e-15),
     "The function value at x=-1.0 is NaN; solver cannot continue."),
    # information measures: each parameter named before any grid work
    (phi_fisher, (GAUSS, NAN, 2.0), "q must be finite, got nan"),
    (phi_fisher, (GAUSS, -INF, 2.0), "q must be finite, got -inf"),
    (phi_fisher, (GAUSS, 1.0, 1.0), "beta must exceed 1, got 1.0"),
    (phi_fisher, (OFF_CENTRE, 1.0, NAN), "beta must exceed 1, got nan"),
    (i_fisher, (GAUSS, NAN, 2.0), "q must be finite, got nan"),
    (i_fisher, (OFF_CENTRE, 2.0, NAN), "beta must exceed 1, got nan"),
    (m_q, (OFF_CENTRE, NAN), "q must be >= 0, got nan"),
    (m_q, (GAUSS, -0.5), "q must be >= 0, got -0.5"),
    (moment_abs, (GAUSS, NAN), "alpha must be finite and > 0, got nan"),
    (moment_abs, (GAUSS, 0.0), "alpha must be finite and > 0, got 0.0"),
    # the diagnostic halves the grid twice: 5 nodes would leave 2
    *[(phi_fisher_refined, (GridDensity(Axis(0.0, 1.0, count), np.ones(count)), 1.0, 2.0),
       f"the refinement diagnostic needs a count = 4k + 1 with k >= 2, got {count}")
      for count in (1003, 5)],
    (escort, (OFF_CENTRE, NAN), "q must be positive, got nan"),
    (escort, (GAUSS, 0.0), "q must be positive, got 0.0"),
    (escort_inverse, (OFF_CENTRE, NAN), "q must be positive, got nan"),
    (escort, (ZERO, 2.0), "escort of an identically-zero density"),
    (escort, (HEAVY, 3.0), "escort integral does not converge on this grid: f^(1/q) at the "
                           "domain edge is ...", EscortDivergenceError),
    # q-Gaussians and the Barenblatt family
    *[(QGaussianParams, args, message) for args, message in [
        ((-1.0, 2.0, 1.0), "q must be finite and positive, got -1.0"),
        ((NAN, 2.0, 1.0), "q must be finite and positive, got nan"),
        ((INF, 2.0, 1.0), "q must be finite and positive, got inf"),
        ((2.0, 1.0, 1.0), "alpha must be finite and exceed 1, got 1.0"),
        ((2.0, NAN, 1.0), "alpha must be finite and exceed 1, got nan"),
        ((2.0, INF, 1.0), "alpha must be finite and exceed 1, got inf"),
        ((2.0, 2.0, 0.0), "gamma must be finite and positive, got 0.0"),
        ((2.0, 2.0, NAN), "gamma must be finite and positive, got nan"),
        ((2.0, 2.0, INF), "gamma must be finite and positive, got inf"),
        ((2.0, 2.0, 1.0, 0), "dim must be >= 1, got 0"),
        ((0.2, 2.0, 1.0, 3), "not integrable: q < 1 requires alpha/(1-q) > n, "
                             "got alpha/(1-q) = 2.5 <= n = 3")]],
    # q < 1 with alpha/(1-q) in (n, n + alpha]: normalizable, infinite moment
    (moment_alpha, (QGaussianParams(0.3, 2.0, 1.0, 1),),
     "divergent moment: q < 1 requires alpha/(1-q) > n + alpha, got alpha/(1-q) = 2.85714 ..."),
    # ... and q alpha/(1-q) <= n: M_q = int G^q diverges
    (closed_form_m_q, (QGaussianParams(0.3, 2.0, 1.0, 1),),
     "M_q diverges: q alpha/(1-q) = 0.857143 <= n"),
    *[(call, (P, target), f"target {name} must be finite and positive, got {target}")
      for call, name in ((gamma_for_moment, "moment"), (gamma_for_entropy_power, "entropy power"))
      for target in (INF, NAN, 0.0, -1.0)],
    *[(DiffusionParams, args, message) for args, message in [
        ((1.0, 1.0), "beta must be finite and exceed 1, got 1.0"),
        ((1.0, NAN), "beta must be finite and exceed 1, got nan"),
        ((1.0, INF), "beta must be finite and exceed 1, got inf"),
        ((NAN, 2.0), "m must be finite and positive, got nan"),
        ((INF, 2.0), "m must be finite and positive, got inf"),
        ((2.0, 2.0, 0), "dim must be >= 1, got 0"),
        ((0.1, 1.2, 3), "self-similarity and Barenblatt existence require delta = n(beta-1)m "
                        "+ beta - n > 0, i.e. m(beta-1) + beta/n - 1 > 0, got delta = ...")]],
    (barenblatt, (PME, 0.4, 0.0, 0.0), "t must be positive, got 0.0"),
    (barenblatt, (PME, 1.0, [0.0], NAN), "t must be positive, got nan"),
    (barenblatt_mass, (PME, NAN), "C must be positive"),
    # the diffusion solver: refused before the march is chosen
    (DiffusionState, (DiffusionParams(0.5, 2.0, 1), 0.0, GAUSS),
     "explicit solver requires m(beta-1) >= 1: the fast-diffusion range has ..."),
    *[(DiffusionState, (HEAT, 0.0, GridDensity(Axis(0.0, 2.0, 21), np.ones(21), dim)),
       "the diffusion solver is 1-D") for dim in (2, 3)],
    *[(evolve, (PME_STATE, t_end, 11), f"t_end = {t_end} must exceed the current t = 1.0")
      for t_end in (1.0, 0.9, NAN)],
    *[(evolve, (PME_STATE, 2.0, n_logs),
       f"n_logs must be >= 2 (the first and last rows), got {n_logs}") for n_logs in (0, 1)],
    # a span one ulp long has no 201 distinct times
    (evolve, (PME_STATE, 1.0000000000000002, 201), "log times from t = 1.0 to t_end = "
     "1.0000000000000002 over n_logs = 201 rows are not strictly increasing"),
    (TrajectoryLog, (1.0, 2.0, 1.0, np.array([0.0, 0.1, 0.1]), *np.ones((4, 3))),
     "log times must be strictly increasing"),
    (debruijn_check, (TrajectoryLog(1.0, 2.0, 1.0, TIMES[:2], *np.ones((4, 2))), HEAT),
     "need at least 3 log rows for centered differences"),
    (phi_monotonicity_check, (TrajectoryLog(1.5, 3.0, 1.0, TIMES, *np.ones((4, 3))),),
     "monotonicity diagnostic applies to beta = 2 trajectories"),
    # estimation
    (EstimatorSpec, (None, None, NAN), "alpha must exceed 1, got nan"),
    # n sigma^2 underflows to 0, overflows to inf, or is nan
    *[(gaussian_location_model, (1, sigma), f"sigma = {sigma} gives the variance n sigma^2 = "
       f"{sigma * sigma}, which must be finite and > 0") for sigma in (1e-300, 1e200, NAN)],
    (escort_pair_model, (0.5, 2.0),
     "the escort pair needs q > 1/2, where f's index (2q - 1)/q is positive; got q = 0.5"),
    (crm_bound_scalar, (SUM_LOCATION, X_OF_THETA_0, [0.0, 0.0]), "scalar bound requires dim_theta = 1"),
    (crm_bound_quadratic, (GAUSS_MODEL, EstimatorSpec(MEAN.T, MEAN.h, 3.0), [0.0]),
     "quadratic bound requires alpha = 2"),
    (crm_bound_general, (GAUSS_MODEL, MEAN, [0.0], [[NAN]]), "A must be positive definite"),
    (mc_error_moment, (SUM_LOCATION, X_OF_THETA_0, [0.0, 0.0], 10, 1),
     "model 'sum-location' has no sampler for g"),
    # one draw has no jackknife error
    *[(mc_error_moment, (GAUSS_MODEL, MEAN, [0.4], trials, 2),
       f"trials must be >= 2 for a jackknife error, got {trials}") for trials in (1, 0, -3)],
    # the recentering of an off-centre density is work too
    (qcr_product, (OFF_CENTRE, NAN, 2.0), "q must be positive, got nan"),
    (qcr_product, (OFF_CENTRE, 0.0, 2.0), "q must be positive, got 0.0"),
    *[(qcr_product, (density, 1.0, alpha), f"alpha must be finite and exceed 1, got {alpha}")
      for density, alpha in ((OFF_CENTRE, NAN), (GAUSS, INF), (GAUSS, 1.0))],
    # f moves mass where g vanishes identically
    (score_g, (model(normal, lambda x, th: np.where(np.abs(x) < 1.0, 0.5, 0.0)), [0.0]),
     "grad_theta f (component 0) is nonzero where g = 0; ...", SingularScoreError),
    # inequalities and perturbations
    (stam_ratio, (HEAVY, 0.3, 2.0),
     "Stam hypothesis fails: need q > max((n-1)/n, n/(n+alpha)) = 0.333333, got q = 0.3"),
    (perturbed_density, (P, None, 1.5, "moment", 0.2), "amplitude must be in [0, 1), got 1.5"),
    (perturbed_density, (P2, None, 0.1, "moment", 0.2), "perturbation families are 1-D"),
    (perturbed_density, (P, None, 0.1, "volume", 0.2), "unknown constraint 'volume'"),
    *[(first_of_batch, (P, None, count, n_levels, "moment", 0.2, 201),
       f"need count >= 1 and n_levels >= 1, got {count} and {n_levels}")
      for count, n_levels in ((0, 5), (5, 0), (-1, 3))],
]

#: refusals of the values a grid holds or a computation on it reaches, in
#: the same form: the work that finds them is allowed
VALUE_REFUSALS = [
    (integrate, (F11, np.where(NODE == 3, INF, 1.0)),
     "non-finite value inf at node index (3,), x = (0.30000000000000004,)", NonFiniteError),
    (normalize, (ZERO,), "cannot normalize density with total mass 0.0"),
    (evolve, (DiffusionState(PME, 1.0, GridDensity(Axis(-3.0, 3.0, 101), np.zeros(101))), 2.0),
     "solution vanished", StabilityError),
    # the tails already touch the edge
    (evolve, (DiffusionState(HEAT, 0.0, density_from_callable(Axis(-2.5, 2.5, 201), normal)), 1.0),
     "support reached the domain boundary at t = 0; ...", StabilityError),
    (NAN_OFF_THETA.check_normalized, ([np.array([1.0])],),
     "f(.; theta=[1.]) has mass nan, not 1 within 1e-06"),
    (model(lambda x, th: np.exp(-x * x)).check_normalized, ([np.array([0.0])],),
     "f(.; theta=[0.]) has mass 1.772453850905516, not 1 within 1e-06"),
    # the density is off the axis
    *[(bound, (m, m.estimator(2.0), [theta], *A), f"f(.; theta={np.array([theta])}) has mass ...")
      for m, theta in ((GAUSS_MODEL, 30.0), (ESCORT_PAIR, 3.0))
      for bound, A in ((crm_bound_scalar, ()), (crm_bound_quadratic, ()),
                       (crm_bound_general, ([[1.0]],)))],
    (score_g, (NAN_OFF_THETA, [0.0]), "score component 0 fails zero-mean: E_g[psi] = nan",
     ArithmeticError),
    (score_g, (SPIKED, [0.0]), "score component 0 fails zero-mean: E_g[psi] = inf",
     ArithmeticError),
    (fisher_matrix_g_over_ignored, (OVERFLOWING, [0.0]), "non-finite Fisher matrix array([[inf]])",
     ArithmeticError),
    (crm_bound_quadratic, (SUM_LOCATION, X_OF_THETA_0, [0.0, 0.0]),
     "singular Fisher matrix; null direction ...", ArithmeticError),
    # an estimator whose mean does not move with theta: eta' = 0
    (crm_bound_general,
     (GAUSS_MODEL, EstimatorSpec(np.zeros_like, lambda th: 0.0, 2.0), [0.0], [[1.0]]),
     "divergent or vanishing denominator in the bound objective", ArithmeticError),
]

ROWS = [pytest.param(call, args, message, *exc or [ValueError], values,
                     id=f"{'value ' * values}{call.__name__}: {message}")
        for values, rows in ((False, REFUSALS), (True, VALUE_REFUSALS))
        for call, args, message, *exc in rows]


def matches(message: str, fragment: str) -> bool:
    return message == fragment or fragment.endswith("...") and message.startswith(fragment[:-3])


def forbid_work(monkeypatch):
    """Make every grid or model integral, gradient, QUADPACK call, choice of
    the march and new numpy Generator fail, on every module that binds it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")

    for module in MODULES:
        for name in ("_integrals", "_gradient", "quad", "_select_march"):
            if name in vars(module):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(ParametricModel, "quad", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)


def refuse(call, args, fragment, exc, values):
    """Run one row with warnings as errors and, unless it refuses values,
    no work; return the frame that raised."""
    with pytest.MonkeyPatch.context() as patch:
        if not values:
            forbid_work(patch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exc) as err:
                call(*args)
    assert type(err.value) is exc and matches(str(err.value), fragment), str(err.value)
    return traceback.extract_tb(err.value.__traceback__)[-1]


@pytest.mark.parametrize("call, args, fragment, exc, values", ROWS)
def test_refused(call, args, fragment, exc, values):
    refuse(call, args, fragment, exc, values)


def test_fragment_matches_all_or_a_start():
    assert matches("a b", "a b") and matches("a b", "a ...") and matches("a b", "a b...")
    assert not matches("a b", "a") and not matches("a b", "b ...") and not matches("a b", "a b ...")


#: the exception types whose raise lines must each be reached by a row
REFUSAL_TYPES = {"ValueError"} | {name for module in MODULES for name, obj in vars(module).items()
                                  if isinstance(obj, type) and issubclass(obj, ValueError)
                                  and obj.__module__ == module.__name__}


@pytest.fixture(scope="module")
def reached():
    """The (file name, line) that raised, read from the traceback, by row."""
    sites = []
    for row in ROWS:
        frame = refuse(*row.values)
        assert Path(frame.filename).parent == PACKAGE
        sites.append((Path(frame.filename).name, frame.lineno))
    return sites


def unreached_refusals(source: str, names, reached_lines) -> list[int]:
    """The lines of `source` that raise an exception type named in `names`,
    are not in `reached_lines`, and are not marked `# pragma: no cover`."""
    text = source.splitlines()
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and getattr(node.exc.func, "id", None) in names
                  and node.lineno not in reached_lines
                  and "pragma: no cover" not in text[node.lineno - 1])


def unreached_by(sites) -> dict:
    """File name -> its refusal lines that no site in `sites` is, if any."""
    out = {}
    for path in (Path(module.__file__) for module in MODULES):
        lines = {line for name, line in sites if name == path.name}
        if missed := unreached_refusals(path.read_text(), REFUSAL_TYPES, lines):
            out[path.name] = missed
    return out


def test_every_refusal_has_a_row(reached):
    assert {"NonFiniteError", "EscortDivergenceError"} < REFUSAL_TYPES
    assert unreached_by(reached) == {}
    # every line a ValueError row reached is one the source scan finds
    found = {(name, line) for name, lines in unreached_by(()).items() for line in lines}
    for row, site in zip(ROWS, reached):
        assert not issubclass(row.values[3], ValueError) or site in found, row.id


def test_detects_refusal_without_a_row(reached):
    source = ("def check(x):\n    if x:\n        raise ValueError(\n            'x')\n"
              "    raise NonFiniteError('y')  # pragma: no cover\n    raise ArithmeticError('z')\n"
              "    raise EscortDivergenceError('w')\n")
    assert unreached_refusals(source, REFUSAL_TYPES, {7}) == [3]
    source = Path(core.__file__).read_text()
    planted = source + "\n\ndef _planted():\n    raise ValueError('planted')\n"
    lines = {line for name, line in reached if name == "core.py"}
    assert unreached_refusals(planted, REFUSAL_TYPES, lines) == [len(source.splitlines()) + 4]
    # without the first row whose line no other row reaches, that line alone is unreached
    counts = collections.Counter(reached)
    i = next(i for i, site in enumerate(reached) if counts[site] == 1)
    assert unreached_by(reached[:i] + reached[i + 1:]) == {reached[i][0]: [reached[i][1]]}
