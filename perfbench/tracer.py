"""Span tracer for the benchmark: wraps qfisher functions from outside.

A traced function is replaced in every ``qfisher.*`` module namespace that
binds it, because the package binds functions by import
(``from .core import integrate`` in six modules, ``pdf as qpdf`` in
``estimation``).  Patching only the defining module would miss every call
made through another binding.  Methods are patched on their class.  Every
binding is restored when :meth:`Tracer.installed` exits.

Each call opens a span.  A span's self time is its duration minus the
durations of its direct child spans.  Spans are aggregated as they close
(calls, inclusive and self time, exceptions raised), so a traced pass keeps
no per-call list in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: traced callables: (module, attribute, span label).  "Class.method"
#: attributes are patched on the class.
TARGETS = (
    ("qfisher.core", "gradient", "core.gradient"),
    ("qfisher.core", "integrate", "core.integrate"),
    ("qfisher.core", "normalize", "core.normalize"),
    ("qfisher.core", "GridDensity.__init__", "core.GridDensity.init"),
    ("qfisher.qgaussian", "pdf", "qgaussian.pdf"),
    ("qfisher.qgaussian", "grid_density", "qgaussian.grid_density"),
    ("qfisher.qgaussian", "sample", "qgaussian.sample"),
    ("qfisher.qgaussian", "moment_alpha", "qgaussian.moment_alpha"),
    ("qfisher.qgaussian", "closed_form_entropy_power", "qgaussian.closed_form_entropy_power"),
    ("qfisher.qgaussian", "gamma_for_moment", "qgaussian.gamma_for_moment"),
    ("qfisher.qgaussian", "gamma_for_entropy_power", "qgaussian.gamma_for_entropy_power"),
    ("qfisher.info_measures", "phi_fisher", "info_measures.phi_fisher"),
    ("qfisher.info_measures", "i_fisher", "info_measures.i_fisher"),
    ("qfisher.info_measures", "m_q", "info_measures.m_q"),
    ("qfisher.info_measures", "tsallis_entropy", "info_measures.tsallis_entropy"),
    ("qfisher.info_measures", "entropy_power", "info_measures.entropy_power"),
    ("qfisher.info_measures", "moment_abs", "info_measures.moment_abs"),
    ("qfisher.info_measures", "recenter", "info_measures.recenter"),
    ("qfisher.diffusion", "evolve", "diffusion.evolve"),
    ("qfisher.diffusion", "debruijn_check", "diffusion.debruijn_check"),
    ("qfisher.diffusion", "phi_monotonicity_check", "diffusion.phi_monotonicity_check"),
    ("qfisher.perturb", "fourier_bump", "perturb.fourier_bump"),
    ("qfisher.perturb", "perturbed_density", "perturb.perturbed_density"),
    ("qfisher.inequalities", "stam_ratio", "inequalities.stam_ratio"),
    ("qfisher.inequalities", "min_fisher_fixed_moment", "inequalities.min_fisher_fixed_moment"),
    ("qfisher.inequalities", "min_fisher_fixed_entropy", "inequalities.min_fisher_fixed_entropy"),
    ("qfisher.estimation", "qcr_product", "estimation.qcr_product"),
    ("qfisher.estimation", "score_g", "estimation.score_g"),
    ("qfisher.estimation", "crm_bound_scalar", "estimation.crm_bound_scalar"),
    ("qfisher.estimation", "mc_error_moment", "estimation.mc_error_moment"),
) + tuple(("qfisher.acceptance", f"AcceptanceSuite.criterion_{i}", f"acceptance.criterion_{i}")
          for i in range(1, 11))

#: spans whose duration is also kept per grid size (key "n<nodes>")
KEYED_BY_GRID = ("info_measures.phi_fisher", "core.gradient", "core.integrate")

#: the constraint map each root-find evaluates; its calls directly under the
#: gamma_for_* span (every residual of the root-finder plus the one
#: initial-guess evaluation) are counted as qgaussian.rootfind.evals
ROOTFIND_RESIDUALS = {
    "qgaussian.moment_alpha": "qgaussian.gamma_for_moment",
    "qgaussian.closed_form_entropy_power": "qgaussian.gamma_for_entropy_power",
}


def diffusion_run_label(params, nodes: int) -> str:
    """heat / pme / plap by (m, beta), plus the node count."""
    if params.beta == 2.0:
        kind = "heat" if params.m == 1.0 else "pme"
    else:
        kind = "plap" if params.m == 1.0 else f"dnl-m{params.m:g}-b{params.beta:g}"
    return f"{kind}-n{nodes}"


class Tracer:
    """Aggregated spans of one traced pass; plain data via :meth:`to_dict`."""

    def __init__(self):
        self.spans = {}      # label -> [calls, total_s, self_s, errors]
        self.keyed = {}      # "label|key" -> [calls, total_s]
        self.runs = {}       # diffusion run label -> [runs, steps, node_steps, evolve self_s]
        self.rootfind_evals = 0
        self._stack = []     # open spans: [label, child_s]
        self._undo = []

    # -- recording -------------------------------------------------------

    def _close(self, label, dt, child, failed):
        s = self.spans.setdefault(label, [0, 0.0, 0.0, 0])
        s[0] += 1
        s[1] += dt
        s[2] += dt - child
        s[3] += failed
        return dt - child

    def wrap(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is not None and ROOTFIND_RESIDUALS.get(label) == parent[0]:
                tracer.rootfind_evals += 1
            frame = [label, 0.0]
            stack.append(frame)
            failed = 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = 0
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                self_s = tracer._close(label, dt, frame[1], failed)
            tracer._after(label, args, out, dt, self_s)
            if label == "perturb.fourier_bump":
                return tracer.wrap("perturb.bump_eval", out)
            return out

        return traced

    def _after(self, label, args, out, dt, self_s):
        if label in KEYED_BY_GRID:
            key = f"{label}|n{args[0].values.size}"
            k = self.keyed.setdefault(key, [0, 0.0])
            k[0] += 1
            k[1] += dt
        elif label == "diffusion.evolve":
            state0, (state1, _log) = args[0], out
            nodes = state0.f.values.size
            steps = state1.step_count - state0.step_count
            r = self.runs.setdefault(diffusion_run_label(state0.params, nodes), [0, 0, 0, 0.0])
            r[0] += 1
            r[1] += steps
            r[2] += steps * nodes
            r[3] += self_s

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    @contextmanager
    def installed(self):
        """Replace every binding of every target; restore all on exit."""
        try:
            for mod_name, attr, label in TARGETS:
                module = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self.wrap(label, getattr(cls, meth)))
                    continue
                orig = getattr(module, attr)
                wrapper = self.wrap(label, orig)
                for ns_name, ns in list(sys.modules.items()):
                    if ns is None or not (ns_name == "qfisher" or ns_name.startswith("qfisher.")):
                        continue
                    for name, val in list(vars(ns).items()):
                        if val is orig:
                            self._patch(ns, name, wrapper)
            yield self
        finally:
            while self._undo:
                owner, name, orig = self._undo.pop()
                setattr(owner, name, orig)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "keyed": self.keyed, "runs": self.runs,
                "rootfind_evals": self.rootfind_evals}


def merge(traces) -> dict:
    """Sum several :meth:`Tracer.to_dict` records (e.g. one per process)."""
    out = {"spans": {}, "keyed": {}, "runs": {}, "rootfind_evals": 0}
    for t in traces:
        for part in ("spans", "keyed", "runs"):
            for key, vals in t[part].items():
                acc = out[part].setdefault(key, [0] * len(vals))
                out[part][key] = [a + v for a, v in zip(acc, vals)]
        out["rootfind_evals"] += t["rootfind_evals"]
    return out
