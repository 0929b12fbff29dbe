"""Per-layer metrics from a traced pass, and the separation check.

The layers are the qfisher modules.  Which end-to-end metric each layer
should move, and on which workload:

- diffusion: trajectories.wall_s and the reproduce item of cli; no calls on
  certify.
- perturb: certify.wall_s and cli.wall_s; no calls on trajectories.
- info_measures: certify.wall_s most (thousands of small calls),
  trajectories.wall_s a little (a few calls per log row).
- core, inequalities, estimation: certify.wall_s.
- qgaussian: certify.wall_s and cli.wall_s.
- acceptance: the reproduce item of cli.
- cli: cli.setup_s and cli.wall_s.
"""

from __future__ import annotations

import statistics

from cli_workload import item_names

#: spans reported as .calls (count) and .self_s (s)
CALLS_AND_SELF = (
    "diffusion.evolve",
    "perturb.fourier_bump", "perturb.bump_eval", "perturb.perturbed_density",
    "info_measures.phi_fisher", "info_measures.i_fisher", "info_measures.m_q",
    "info_measures.tsallis_entropy", "info_measures.entropy_power",
    "info_measures.moment_abs", "info_measures.recenter",
    "core.gradient", "core.integrate", "core.normalize", "core.GridDensity.init",
    "qgaussian.pdf",
    "inequalities.stam_ratio",
    "estimation.qcr_product", "estimation.score_g", "estimation.crm_bound_scalar",
    "estimation.mc_error_moment",
)
#: spans reported as .self_s only
SELF_ONLY = (
    "diffusion.debruijn_check",
    "qgaussian.gamma_for_moment", "qgaussian.gamma_for_entropy_power",
    "qgaussian.grid_density", "qgaussian.sample",
    "inequalities.min_fisher_fixed_moment", "inequalities.min_fisher_fixed_entropy",
)
#: the acceptance PDE runs, by diffusion_run_label
DIFFUSION_RUNS = ("heat-n4001", "pme-n251", "pme-n501", "plap-n1001")
#: spans whose per-call time is reported at these grid sizes
PER_CALL = {
    "info_measures.phi_fisher": ("n4001", "n8001"),
    "core.gradient": ("n4001", "n8001"),
    "core.integrate": ("n4001", "n8001"),
}
ACCEPTANCE_CRITERIA = tuple(f"acceptance.criterion_{i}" for i in range(1, 11))


def _metric_units() -> dict:
    units = {}
    for label in CALLS_AND_SELF:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    for label in SELF_ONLY:
        units[f"{label}.self_s"] = "s"
    units.update({"diffusion.steps": "count", "diffusion.node_steps": "count",
                  "diffusion.errors": "count", "estimation.errors": "count",
                  "qgaussian.normalization.hit_ratio": "ratio",
                  "qgaussian.normalization.misses": "count",
                  "qgaussian.rootfind.evals": "count"})
    for run in DIFFUSION_RUNS:
        units[f"diffusion.us_per_step.{run}"] = "us"
    for label, keys in PER_CALL.items():
        for key in keys:
            units[f"{label}.us_per_call.{key}"] = "us"
    for label in ACCEPTANCE_CRITERIA:
        units[f"{label}.s"] = "s"
    units["cli.import_s"] = "s"
    for item in item_names():
        units[f"cli.{item}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


#: every per-layer metric name -> unit, in report order
PER_LAYER_UNITS = _metric_units()
#: spans the separation check counts calls of
CHECKED_SPANS = CALLS_AND_SELF + SELF_ONLY + ACCEPTANCE_CRITERIA


def pass_metrics(trace: dict) -> dict:
    """Per-layer values of one traced pass (``trace.overhead_s`` excluded).

    ``trace`` is a merged :class:`tracer.Tracer` record plus the
    normalization cache counters, and for cli passes the per-process
    import and ``main`` times.
    """
    spans = trace["spans"]
    zero = [0, 0.0, 0.0, 0]
    m = {}
    for label in CALLS_AND_SELF:
        calls, _total, self_s, _errors = spans.get(label, zero)
        m[f"{label}.calls"] = calls
        m[f"{label}.self_s"] = self_s
    for label in SELF_ONLY:
        m[f"{label}.self_s"] = spans.get(label, zero)[2]
    runs = trace["runs"]
    m["diffusion.steps"] = sum(r[1] for r in runs.values())
    m["diffusion.node_steps"] = sum(r[2] for r in runs.values())
    for run in DIFFUSION_RUNS:
        _n, steps, _node_steps, self_s = runs.get(run, [0, 0, 0, 0.0])
        m[f"diffusion.us_per_step.{run}"] = 1e6 * self_s / steps if steps else 0.0
    for layer in ("diffusion", "estimation"):
        m[f"{layer}.errors"] = sum(s[3] for label, s in spans.items()
                                   if label.startswith(layer + "."))
    for label, keys in PER_CALL.items():
        for key in keys:
            calls, total = trace["keyed"].get(f"{label}|{key}", [0, 0.0])
            m[f"{label}.us_per_call.{key}"] = 1e6 * total / calls if calls else 0.0
    hits, misses = trace["cache_hits"], trace["cache_misses"]
    m["qgaussian.normalization.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["qgaussian.normalization.misses"] = misses
    m["qgaussian.rootfind.evals"] = trace["rootfind_evals"]
    for label in ACCEPTANCE_CRITERIA:
        m[f"{label}.s"] = spans.get(label, zero)[1]
    m["cli.import_s"] = statistics.median(trace["import_s"]) if trace.get("import_s") else 0.0
    for item in item_names():
        m[f"cli.{item}.s"] = trace.get("run_s", {}).get(item, 0.0)
    return m


def median_metrics(per_pass: list[dict], overhead_s: float) -> dict:
    """Median over traced passes; counts stay whole numbers."""
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            out[name] = overhead_s
            continue
        values = [p[name] for p in per_pass]
        out[name] = statistics.median_low(values) if unit == "count" else statistics.median(values)
    return out


# ---------------------------------------------------------------------------
# separation check
# ---------------------------------------------------------------------------

#: workloads on which each layer is predicted to do work
MOVES = {
    "diffusion": ("trajectories", "cli"),
    "perturb": ("certify", "cli"),
    "info_measures": ("certify", "trajectories"),
    "core": ("certify",),
    "qgaussian": ("certify", "cli"),
    "inequalities": ("certify",),
    "estimation": ("certify",),
    "acceptance": ("cli",),
    "cli": ("cli",),
}
#: layers predicted to do no work at all on a workload
BYPASSED = {"certify": ("diffusion",), "trajectories": ("perturb",)}
#: spans of a working layer that the workload's configuration never calls
NOT_CALLED = {
    ("info_measures.tsallis_entropy", "certify"): "entropy powers use the Renyi form",
    ("info_measures.i_fisher", "trajectories"): "log rows record phi, M_q and S_q only",
    ("info_measures.entropy_power", "trajectories"): "log rows record phi, M_q and S_q only",
    ("info_measures.moment_abs", "trajectories"): "log rows record phi, M_q and S_q only",
    ("info_measures.recenter", "trajectories"): "log rows record phi, M_q and S_q only",
    ("qgaussian.sample", "cli"): "the README crbound configuration samples a Gaussian",
}


def separation_checks(workload: str, trace: dict) -> list[tuple[str, bool]]:
    """The predictions above, as checks on one traced pass."""
    spans = trace["spans"]
    checks = []
    for label in CHECKED_SPANS:
        layer = label.split(".")[0]
        if workload in MOVES[layer] and (label, workload) not in NOT_CALLED:
            checks.append((f"{label}: calls > 0 on {workload}", spans.get(label, [0])[0] > 0))
    for layer in BYPASSED.get(workload, ()):
        stray = [label for label, s in spans.items() if label.startswith(layer + ".") and s[0]]
        checks.append((f"{layer}.*: 0 calls on {workload}", not stray))
    if workload == "cli":
        for item in item_names():
            ran = trace.get("run_s", {}).get(item, 0.0) > 0.0
            checks.append((f"cli.{item}: ran under the tracer", ran))
    return checks
