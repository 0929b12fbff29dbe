"""The acceptance suite: one callable per criterion, plus a driver.

All checks are oracle- or property-based at desk scale: classical limits
(heat kernel, Gaussian Cramer-Rao, classical Stam), self-similar solutions,
escort-pair equality cases, and randomized same-constraint perturbation
batches.  Every criterion pins its tolerance here; the rendered summary is
deterministic (no wall-clock content) so two runs compare byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import EQUALITY_TOL, Axis, Tolerances, density_from_callable, integrate
from .diffusion import DiffusionState, debruijn_check, evolve, phi_monotonicity_check
from .estimation import (
    crm_bound_general,
    crm_bound_quadratic,
    crm_bound_scalar,
    gaussian_location_model,
    mc_error_moment,
    qcr_product,
    sample_mean_estimator,
)
from .inequalities import min_fisher_fixed_entropy, min_fisher_fixed_moment, stam_ratio
from .info_measures import recenter
from .perturb import perturbation_batch
from .qgaussian import (
    DiffusionParams,
    QGaussianParams,
    barenblatt,
    barenblatt_density,
    barenblatt_mass_constant,
    closed_form_entropy_power,
    grid_density,
    moment_alpha,
)

#: parameter points (q, alpha) shared by criteria 6 and 8
QCR_POINTS = ((2.0, 2.0), (1.5, 2.0), (2.0, 3.0))
#: seed for every randomized batch in the suite
SUITE_SEED = 20260811
#: the shared PDE runs, kind -> (m, beta, half_width, t0, t_end): t0 = 0
#: starts from the unit Gaussian, any other t0 from the unit-mass Barenblatt
RUNS = {"heat": (1.0, 2.0, 10.0, 0.0, 0.5),
        "pme": (2.0, 2.0, 3.5, 1.0, 2.0),
        "plap": (1.0, 3.0, 3.6, 1.0, 2.0)}


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_summary(results) -> str:
    """Deterministic pass/fail table (no timings, sorted detail keys)."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(r.details.items()))
        lines.append(f"criterion {r.index:2d} [{status}] {r.name}: {detail}")
    overall = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall [{overall}] {sum(r.passed for r in results)}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"


class AcceptanceSuite:
    """Runs the ten acceptance criteria, caching the shared PDE trajectories."""

    def __init__(self):
        self._cache = {}

    def run(self, kind: str, count: int):
        """(dp, C, state, log, evolve seconds) of the RUNS entry `kind` on
        `count` nodes, cached; C is None for the Gaussian start."""
        key = (kind, count)
        if key not in self._cache:
            m, beta, half_width, t0, t_end = RUNS[kind]
            dp = DiffusionParams(m, beta, 1)
            ax = Axis(-half_width, half_width, count)
            if t0 == 0.0:
                C = None
                f0 = density_from_callable(ax, lambda x: np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi))
            else:
                C = barenblatt_mass_constant(dp)
                f0 = barenblatt_density(dp, t0, ax, C)
            start = time.perf_counter()
            state, log = evolve(DiffusionState(dp, t0, f0), t_end, n_logs=201)
            self._cache[key] = (dp, C, state, log, time.perf_counter() - start)
        return self._cache[key]

    # -- criteria ------------------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        """Classical de Bruijn recovery on the heat equation: both sides equal
        1/(1+2t) within 1e-2 relative at every logged interior time."""
        dp, _, _, log, elapsed = self.run("heat", 4001)
        reports = debruijn_check(log, dp, Tolerances.for_pde())
        worst = 0.0
        for r in reports:
            exact = 1.0 / (1.0 + 2.0 * r.extras["t"])
            worst = max(worst, abs(r.lhs - exact) / exact, abs(r.rhs - exact) / exact)
        passed = worst < 1e-2 and elapsed < 30.0
        return CriterionResult(1, "classical de Bruijn (heat, m=1 beta=2)", passed,
                               {"worst_rel_err_vs_1/(1+2t)": worst, "rows": len(reports),
                                "runtime_ok": elapsed < 30.0})

    def criterion_2(self) -> CriterionResult:
        """Extended de Bruijn on the porous medium run (m=2, beta=2, q=2):
        mid-trajectory relative error < 1e-2 and error ratio < 0.5 under one
        grid refinement."""
        t0 = time.perf_counter()
        dp, _, _, log_base, t_base = self.run("pme", 251)
        _, _, _, log_fine, t_fine = self.run("pme", 501)
        mids = []
        for log in (log_base, log_fine):
            reps = debruijn_check(log, dp, Tolerances.for_pde())
            mids.append(reps[len(reps) // 2].gap)
        ratio = mids[1] / mids[0]
        elapsed = time.perf_counter() - t0 + t_base + t_fine
        passed = mids[0] < 1e-2 and ratio < 0.5 and elapsed < 120.0
        return CriterionResult(2, "extended de Bruijn (porous medium, q=2)", passed,
                               {"mid_rel_err": mids[0], "mid_rel_err_refined": mids[1],
                                "refinement_ratio": ratio, "runtime_ok": elapsed < 120.0})

    def criterion_3(self) -> CriterionResult:
        """Barenblatt self-similarity over a time doubling: relative L1
        distance to the analytic profile < 1e-2 for (m, beta) = (2,2), (1,3)."""
        details = {}
        passed = True
        for key, kind, count in (("l1_m2_beta2", "pme", 501), ("l1_m1_beta3", "plap", 1001)):
            dp, C, state, _, _ = self.run(kind, count)
            exact = barenblatt(dp, C, state.f.axis.nodes(), 2.0)
            details[key] = integrate(state.f, np.abs(state.f.values - exact))
            passed &= details[key] < 1e-2
        return CriterionResult(3, "Barenblatt self-similarity (2,2) and (1,3)", passed, details)

    def criterion_4(self) -> CriterionResult:
        """Classical Cramer-Rao equality for the Gaussian location model:
        LHS = RHS = sigma within 1e-6 by quadrature and within 3 MC standard
        errors at 1e5 trials."""
        model = gaussian_location_model(n=1, sigma=1.0)
        est = sample_mean_estimator(n=1)
        rep = crm_bound_scalar(model, est, [0.0])
        mc, se = mc_error_moment(model, est, [0.0], trials=100_000, seed=SUITE_SEED)
        passed = (abs(rep.lhs - 1.0) < 1e-6 and abs(rep.rhs - 1.0) < 1e-6
                  and abs(mc - rep.rhs) < 3.0 * se)
        return CriterionResult(4, "classical Cramer-Rao equality (Gaussian)", passed,
                               {"lhs": rep.lhs, "rhs": rep.rhs, "mc": mc, "mc_se": se,
                                "equality_residual": rep.extras["equality_residual"]})

    def criterion_5(self) -> CriterionResult:
        """Multivariate quadratic bound, n=3 product-normal location with the
        sample mean: both sides equal 1/3 within 1e-6; a random-A sweep never
        exceeds the A = J^-1 value."""
        model = gaussian_location_model(n=3)
        est = sample_mean_estimator(n=3)
        rep = crm_bound_quadratic(model, est, [0.0])
        best = float(np.sqrt(rep.rhs))  # the sup over A, attained at A = J^-1
        amplitudes = np.random.default_rng(SUITE_SEED + 5).uniform(0.05, 20.0, 20)
        sweep_max = max(crm_bound_general(model, est, [0.0], np.array([[a]])) for a in amplitudes)
        passed = (abs(rep.lhs - 1.0 / 3.0) < 1e-6 and abs(rep.rhs - 1.0 / 3.0) < 1e-6
                  and sweep_max <= best + 1e-10)
        return CriterionResult(5, "quadratic bound, n=3 product normal", passed,
                               {"lhs": rep.lhs, "rhs": rep.rhs,
                                "sweep_max": sweep_max, "optimum": best})

    def criterion_6(self) -> CriterionResult:
        """q-Cramer-Rao equality at matching q-Gaussians for the (q, alpha)
        points, product = n within 1e-4; 100 same-moment perturbed densities
        all have product > n with the minimum gap at the smallest amplitude."""
        details = {}
        passed = True
        for pt_idx, (q, alpha) in enumerate(QCR_POINTS):
            p = QGaussianParams(q, alpha, 1.0, 1)
            g = grid_density(p, 8001)
            rep = qcr_product(g, q, alpha)
            details[f"product_q{q}_a{alpha}"] = rep.lhs
            passed &= abs(rep.lhs - 1.0) < EQUALITY_TOL
        # perturbation batch at the first point
        q, alpha = QCR_POINTS[0]
        p = QGaussianParams(q, alpha, 1.0, 1)
        rng = np.random.default_rng(SUITE_SEED + 6)
        gaps = []  # (gap, amplitude)
        for _, a, fp in perturbation_batch(p, rng, 100, 5, "moment", moment_alpha(p), 4001):
            fp, _ = recenter(fp)
            gaps.append((qcr_product(fp, q, alpha).lhs - 1.0, a))
        min_gap, min_amp = min(gaps)
        passed &= all(gap > 0 for gap, _ in gaps)
        passed &= min_amp == min(a for _, a in gaps)
        details.update({"perturbed": len(gaps), "min_gap": min_gap,
                        "min_gap_amplitude": min_amp, "all_above_n": all(g > 0 for g, _ in gaps)})
        return CriterionResult(6, "q-Cramer-Rao equality and perturbed gaps", passed, details)

    def criterion_7(self) -> CriterionResult:
        """Generalized Stam: ratio = 1 within 1e-4 at the q-Gaussian and > 1
        for all perturbed densities, (q, beta) in {(1,2), (2,2)}, n=1."""
        details = {}
        passed = True
        rng = np.random.default_rng(SUITE_SEED + 7)
        for q, beta in ((1.0, 2.0), (2.0, 2.0)):
            alpha = beta / (beta - 1.0)
            p = QGaussianParams(q, alpha, 1.0, 1)
            f = grid_density(p, 8001)
            rep = stam_ratio(f, q, beta, Tolerances(inequality_slack=1e-4))
            details[f"ratio_q{q}"] = rep.lhs
            passed &= abs(rep.lhs - 1.0) < EQUALITY_TOL
            worst = min(stam_ratio(fp, q, beta).lhs for _, _, fp in
                        perturbation_batch(p, rng, 30, 3, "moment", moment_alpha(p), 4001))
            details[f"min_perturbed_ratio_q{q}"] = worst
            passed &= worst > 1.0
        return CriterionResult(7, "generalized Stam equality and strictness", passed, details)

    def criterion_8(self) -> CriterionResult:
        """Minimum-Fisher characterizations at the criterion-6 points, 50
        perturbations each; fitted gap-vs-amplitude exponent in [1.7, 2.3]."""
        details = {}
        passed = True
        for idx, (q, alpha) in enumerate(QCR_POINTS):
            beta = alpha / (alpha - 1.0)
            p1 = QGaussianParams(q, alpha, 1.0, 1)
            rep_m = min_fisher_fixed_moment(q, alpha, moment_alpha(p1), 1,
                                            perturbation_count=50, seed=SUITE_SEED + 80 + idx,
                                            grid_count=4001, tol=Tolerances(inequality_slack=1e-6))
            rep_e = min_fisher_fixed_entropy(q, beta, closed_form_entropy_power(p1), 1,
                                             perturbation_count=50, seed=SUITE_SEED + 90 + idx,
                                             grid_count=4001, tol=Tolerances(inequality_slack=1e-6))
            for tag, rep in (("moment", rep_m), ("entropy", rep_e)):
                expo = rep.extras["gap_amplitude_exponent"]
                details[f"{tag}_q{q}_a{alpha}_exponent"] = expo
                passed &= rep.passed and 1.7 <= expo <= 2.3
        return CriterionResult(8, "minimum-Fisher characterizations", passed, details)

    def criterion_9(self) -> CriterionResult:
        """Monotonicity diagnostics along the criterion-1/2 trajectories:
        phi(2, q) non-increasing and S_q non-decreasing, per-step slack 1e-9."""
        details = {}
        passed = True
        for key, kind, count in (("heat_ok", "heat", 4001), ("pme_251_ok", "pme", 251),
                                 ("pme_501_ok", "pme", 501)):
            _, _, _, log, _ = self.run(kind, count)
            details[key] = phi_monotonicity_check(log, slack=1e-9).passed
            passed &= details[key]
        return CriterionResult(9, "entropy/Fisher monotonicity along trajectories", passed, details)

    def criterion_10(self) -> CriterionResult:
        """Determinism: a fresh suite reproduces the criteria 1-9 summary
        byte-for-byte."""
        first = render_summary(self._results_1_9)
        fresh = AcceptanceSuite()
        again = render_summary(fresh.run_core())
        identical = first == again
        return CriterionResult(10, "byte-identical reproduction", identical,
                               {"bytes": len(first.encode()), "identical": identical})

    # -- drivers -------------------------------------------------------------

    def run_core(self) -> list[CriterionResult]:
        """Criteria 1-9 (everything except the determinism re-run)."""
        results = [fn() for fn in (self.criterion_1, self.criterion_2, self.criterion_3,
                                   self.criterion_4, self.criterion_5, self.criterion_6,
                                   self.criterion_7, self.criterion_8, self.criterion_9)]
        self._results_1_9 = results
        return results

    def run_all(self) -> list[CriterionResult]:
        results = self.run_core()
        results.append(self.criterion_10())
        return results
