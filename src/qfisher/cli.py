"""Command-line front end.

Subcommands: info, diffuse, crbound, qcr, stam, minimize, reproduce.  A
subcommand's *_DEFAULTS dict is the one declaration of its options: key
`some_key` is the flag `--some-key` and the config-file key `some_key`, and
a value from either takes the default's type.  No other flag or key is
accepted; `--seed` exists only on crbound, stam and minimize (on the first
two, exactly when trials or perturbations > 0), and `reproduce` (pinned
suite seed) takes only -o.  A count below its least value (LEAST_COUNT;
minimize needs perturbations >= 1, crbound trials 0 or >= 2), an even grid
count (on info, one not 4k + 1), or a tolerance or minimize target that is
not finite and > 0, is refused.  A flat key = value file (--config) is
overridden by flags; every report embeds the fully resolved configuration.
Reports are deterministic byte-for-byte for identical config + seed: JSON is
emitted with sorted keys and shortest round-trip floats, CSV with 17
significant digits and '.' decimal.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .acceptance import SUITE_SEED, AcceptanceSuite, render_summary
from .core import Axis, Tolerances, density_from_callable
from .diffusion import DiffusionState, StabilityError, debruijn_check, evolve, phi_monotonicity_check, trajectory_csv_rows
from .estimation import (
    EstimatorSpec,
    MODEL_REGISTRY,
    crm_bound_scalar,
    mc_error_moment,
    qcr_product,
)
from .inequalities import min_fisher_fixed_entropy, min_fisher_fixed_moment, stam_ratio
from .info_measures import entropy_power, m_q, phi_fisher_refined, renyi_entropy, tsallis_entropy
from .perturb import perturbation_batch
from .qgaussian import QGaussianParams, grid_density, moment_alpha

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


def _fmt17(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment.  Values stay strings."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _option_type(default):
    """An option's values take its default's type; a None default (the
    seed, unset) stands for an int."""
    return int if default is None else type(default)


def resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags, every value of its default's
    type; an option still None (the unset seed) is left out.  The Hoelder
    pair (alpha, beta) is cross-validated when both are given explicitly and
    derived from the other when only one is; counts, tolerances and the
    minimize target are checked before any work."""
    cfg = dict(defaults)
    file_cfg = read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, text in file_cfg.items():
        typ = _option_type(defaults[key])
        try:
            cfg[key] = typ(text)
        except ValueError:
            raise UsageError(f"config key {key!r}: expected {typ.__name__}, got {text!r}") from None
    flags = {key: val for key, val in vars(args).items() if key in defaults and val is not None}
    cfg.update(flags)
    explicit = set(file_cfg) | set(flags)
    if "alpha" in defaults and "beta" in defaults:
        for key in ("alpha", "beta"):
            if key in explicit and not 1 < cfg[key] < math.inf:
                raise UsageError(f"{key} must be finite and exceed 1, got {cfg[key]}")
        if "alpha" in explicit and "beta" in explicit:
            if abs(1.0 / cfg["alpha"] + 1.0 / cfg["beta"] - 1.0) > 1e-12:
                raise UsageError(
                    f"alpha = {cfg['alpha']} and beta = {cfg['beta']} are not Hoelder conjugate")
        elif "alpha" in explicit:
            cfg["beta"] = cfg["alpha"] / (cfg["alpha"] - 1.0)
        elif "beta" in explicit:
            cfg["alpha"] = cfg["beta"] / (cfg["beta"] - 1.0)
    _check_counts(cfg)
    for key in ("identity_rel", "inequality_slack", "target"):
        if key in cfg and not 0 < cfg[key] < math.inf:
            raise UsageError(f"{key} must be finite and > 0, got {cfg[key]}")
    return {k: v for k, v in cfg.items() if v is not None}


#: least value of each count option; a grid count must also be odd
#: (composite Simpson) and n_logs gives the centered differences of dS/dt
LEAST_COUNT = {"grid_count": 3, "n_logs": 3, "perturbations": 0, "trials": 0}


def _check_counts(cfg: dict, least: dict = LEAST_COUNT):
    """A count option below its least value, or an even grid count, is a
    usage error naming the key."""
    for key, low in least.items():
        if key in cfg and (cfg[key] < low or key == "grid_count" and cfg[key] % 2 == 0):
            odd = "odd and " if key == "grid_count" else ""
            raise UsageError(f"{key} must be {odd}>= {low}, got {cfg[key]}")


def _check_seed(cfg: dict, count_key: str):
    """A seed is given exactly when cfg[count_key] > 0 draws random numbers:
    missing then, or given when nothing reads it, is a usage error."""
    if cfg[count_key] and "seed" not in cfg:
        raise UsageError(f"--seed is mandatory when {count_key} > 0")
    if not cfg[count_key] and "seed" in cfg:
        raise UsageError(f"seed = {cfg['seed']} is never read: {count_key} = 0 draws nothing")


def _check_one_dimensional(cfg: dict, what: str):
    """n other than 1 is a usage error where the computation is 1-D."""
    if cfg["n"] != 1:
        raise UsageError(f"n = {cfg['n']} is not supported: {what} is 1-D")


def _emit(text: str, output_path):
    if output_path:
        with open(output_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _canonical(v):
    if isinstance(v, float) and v == 0.0:
        return 0.0  # fold -0.0 for byte-stable reports
    if isinstance(v, dict):
        return {k: _canonical(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_canonical(x) for x in v]
    return v


def _json_report(payload: dict, cfg: dict) -> str:
    payload = dict(payload)
    payload["config"] = {k: cfg[k] for k in sorted(cfg)}
    return json.dumps(_canonical(payload), sort_keys=True, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers (return process exit code)
# ---------------------------------------------------------------------------

INFO_DEFAULTS = {
    "family": "qgaussian", "q": 1.0, "alpha": 2.0, "beta": 2.0, "gamma": 0.5,
    "n": 1, "lo": 0.0, "hi": 1.0, "sigma": 1.0, "grid_count": 4001,
}


def cmd_info(args) -> int:
    cfg = resolve_config(args, INFO_DEFAULTS)
    if (cfg["grid_count"] - 1) % 4:
        raise UsageError(f"grid_count must be 4k + 1 (the refinement diagnostic halves the "
                         f"grid twice), got {cfg['grid_count']}")
    fam = cfg["family"]
    if fam == "qgaussian":
        f = grid_density(QGaussianParams(cfg["q"], cfg["alpha"], cfg["gamma"], cfg["n"]),
                         cfg["grid_count"])
    elif fam == "gaussian":
        _check_one_dimensional(cfg, "the gaussian family")
        s = cfg["sigma"]
        ax = Axis(-10.0 * s, 10.0 * s, cfg["grid_count"])
        f = density_from_callable(
            ax, lambda x: np.exp(-x * x / (2 * s * s)) / np.sqrt(2 * np.pi * s * s))
    elif fam == "uniform":
        _check_one_dimensional(cfg, "the uniform family")
        ax = Axis(cfg["lo"], cfg["hi"], cfg["grid_count"])
        f = density_from_callable(ax, lambda x: np.ones_like(x) / (cfg["hi"] - cfg["lo"]))
    else:
        raise UsageError(f"unknown family {fam!r} (uniform, gaussian, qgaussian)")
    q, beta = cfg["q"], cfg["beta"]
    diag = phi_fisher_refined(f, q, beta)
    mq = m_q(f, q)
    payload = {
        "M_q": mq,
        "S_q": tsallis_entropy(f, q, mq),
        "H_q": renyi_entropy(f, q, mq),
        "N_q": entropy_power(f, q, mq),
        "phi": diag.value,
        "I": diag.value / mq ** beta,
        "divergence_flag": diag.diverged,
    }
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS


DIFFUSE_DEFAULTS = {
    "m": 2.0, "beta": 2.0, "alpha": 2.0, "n": 1, "init": "barenblatt",
    "t0": 1.0, "t_end": 2.0, "sigma0": 1.0,
    "grid_lo": -3.5, "grid_hi": 3.5, "grid_count": 1001, "n_logs": 201,
    "identity_rel": 1e-2, "inequality_slack": 1e-9,
}


def cmd_diffuse(args) -> int:
    from .qgaussian import DiffusionParams, barenblatt_density

    cfg = resolve_config(args, DIFFUSE_DEFAULTS)
    if not args.output:
        raise UsageError("diffuse requires --output for the trajectory CSV")
    _check_one_dimensional(cfg, "the diffusion solver")
    for key in ("m", "t0"):
        if not math.isfinite(cfg[key]):
            raise UsageError(f"{key} must be finite, got {cfg[key]}")
    if not 0 < cfg["sigma0"] < math.inf:
        raise UsageError(f"sigma0 must be finite and > 0, got {cfg['sigma0']}")
    if not -math.inf < cfg["grid_lo"] < cfg["grid_hi"] < math.inf:
        raise UsageError(f"grid_lo and grid_hi must be finite with grid_lo < grid_hi, "
                         f"got {cfg['grid_lo']} and {cfg['grid_hi']}")
    dp = DiffusionParams(cfg["m"], cfg["beta"], cfg["n"])
    ax = Axis(cfg["grid_lo"], cfg["grid_hi"], cfg["grid_count"])
    if cfg["init"] == "barenblatt":
        if cfg["t0"] <= 0:
            raise UsageError("barenblatt initial data needs t0 > 0")
        f0 = barenblatt_density(dp, cfg["t0"], ax)
    elif cfg["init"] == "gaussian":
        s0 = cfg["sigma0"]
        f0 = density_from_callable(
            ax, lambda x: np.exp(-x * x / (2 * s0 * s0)) / np.sqrt(2 * np.pi * s0 * s0))
    else:
        raise UsageError(f"unknown init {cfg['init']!r} (barenblatt, gaussian)")
    state, log = evolve(DiffusionState(dp, cfg["t0"], f0), cfg["t_end"], cfg["n_logs"])
    tol = Tolerances(identity_rel=cfg["identity_rel"],
                     inequality_slack=cfg["inequality_slack"])
    reports = debruijn_check(log, dp, tol)
    verdicts = [r.passed for r in reports]
    summary = {
        "debruijn_max_rel_err": max(r.gap for r in reports),
        "debruijn_ok": all(verdicts),
        "rows": len(log.times),
        "steps": state.step_count,
    }
    if dp.beta == 2.0:
        mono = phi_monotonicity_check(log, cfg["inequality_slack"])
        summary["monotonicity_ok"] = mono.passed
        verdicts.append(mono.passed)
    header = "t,mass,M_q,S_q,phi,dSdt_fd,rhs_identity,rel_err"
    lines = [header]
    for row in trajectory_csv_rows(log, reports):
        lines.append(",".join(_fmt17(x) for x in row))
    _emit("\n".join(lines) + "\n", args.output)
    sys.stdout.write(_json_report(summary, cfg))
    return EXIT_PASS if all(verdicts) else EXIT_VERDICT


CRBOUND_DEFAULTS = {
    "model": "gaussian-location", "n": 1, "sigma": 1.0,
    "q": 2.0, "alpha": 2.0, "beta": 2.0, "gamma": 1.0,
    "theta": 0.0, "trials": 0, "grid_count": 4001,
    "inequality_slack": 1e-9, "seed": None,
}


#: crbound's Monte Carlo error moment is inconsistent more than MC_SIGMAS
#: standard errors below rhs; at 3, one correct run in ~740 would fail by chance
MC_SIGMAS = 5.0


def cmd_crbound(args) -> int:
    cfg = resolve_config(args, CRBOUND_DEFAULTS)
    if cfg["trials"] == 1:
        raise UsageError("trials must be 0 or >= 2 (one draw has no jackknife error), got 1")
    _check_seed(cfg, "trials")
    name = cfg["model"]
    if name not in MODEL_REGISTRY:
        raise UsageError(f"unknown model {name!r}; registry: {sorted(MODEL_REGISTRY)}")
    if name == "gaussian-location":
        model = MODEL_REGISTRY[name](n=cfg["n"], sigma=cfg["sigma"], count=cfg["grid_count"])
    else:
        _check_one_dimensional(cfg, f"the {name} model")
        model = MODEL_REGISTRY[name](q=cfg["q"], alpha=cfg["alpha"], gamma=cfg["gamma"],
                                     count=cfg["grid_count"])
    # the sample mean s / n of the Gaussian model's sufficient statistic; x itself otherwise
    est = EstimatorSpec(T=lambda coords: coords[0] / cfg["n"], h=lambda th: float(th[0]),
                        alpha=cfg["alpha"])
    theta = [cfg["theta"]]
    rep = crm_bound_scalar(model, est, theta,
                           Tolerances(inequality_slack=cfg["inequality_slack"]))
    payload = {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "gap": rep.gap,
        "equality_residual": rep.extras["equality_residual"],
        "c_opt": rep.extras["c_opt"],
        "passed": rep.passed,
        "mc": None,
        "mc_se": None,
    }
    if cfg["trials"]:
        mc, se = mc_error_moment(model, est, theta, cfg["trials"], cfg["seed"])
        payload["mc"], payload["mc_se"] = mc, se
        payload["mc_consistent"] = bool(mc > rep.rhs - MC_SIGMAS * se)
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if rep.passed and payload.get("mc_consistent", True) else EXIT_VERDICT


QCR_DEFAULTS = {
    "q": 2.0, "alpha": 2.0, "beta": 2.0, "gamma": 1.0, "n": 1, "grid_count": 8001,
    "inequality_slack": 1e-6,
}


def cmd_qcr(args) -> int:
    cfg = resolve_config(args, QCR_DEFAULTS)
    g = grid_density(QGaussianParams(cfg["q"], cfg["alpha"], cfg["gamma"], cfg["n"]),
                     cfg["grid_count"])
    rep = qcr_product(g, cfg["q"], cfg["alpha"],
                      Tolerances(inequality_slack=cfg["inequality_slack"]))
    payload = {"product": rep.lhs, "dim": rep.rhs, "gap": rep.gap, "passed": rep.passed}
    payload.update(rep.extras)
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if rep.passed else EXIT_VERDICT


STAM_DEFAULTS = {
    "q": 1.0, "alpha": 2.0, "beta": 2.0, "gamma": 0.5, "n": 1,
    "grid_count": 8001, "perturbations": 0,
    "inequality_slack": 1e-4, "seed": None,
}


def cmd_stam(args) -> int:
    cfg = resolve_config(args, STAM_DEFAULTS)
    _check_seed(cfg, "perturbations")
    if cfg["perturbations"]:
        _check_one_dimensional(cfg, "the perturbation family")
    p = QGaussianParams(cfg["q"], cfg["alpha"], cfg["gamma"], cfg["n"])
    f = grid_density(p, cfg["grid_count"])
    tol = Tolerances(inequality_slack=cfg["inequality_slack"])
    rep = stam_ratio(f, cfg["q"], cfg["beta"], tol)
    min_perturbed = None
    verdict = rep.passed
    if cfg["perturbations"]:
        batch = perturbation_batch(p, np.random.default_rng(cfg["seed"]),
                                   cfg["perturbations"], 5, "moment", moment_alpha(p),
                                   min(cfg["grid_count"], 4001))
        min_perturbed = min(stam_ratio(fp, cfg["q"], cfg["beta"], tol).lhs for _, _, fp in batch)
        verdict = verdict and min_perturbed > 1.0
    payload = {
        "value_G": rep.extras["product_ref"],
        "product_f": rep.extras["product_f"],
        "ratio": rep.lhs,
        "min_perturbed": min_perturbed,
        "worst_gap": None if min_perturbed is None else min_perturbed - 1.0,
        "verdict": bool(verdict),
    }
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if verdict else EXIT_VERDICT


MINIMIZE_DEFAULTS = {
    "constraint": "moment", "q": 2.0, "alpha": 2.0, "beta": 2.0, "target": 0.2,
    "n": 1, "perturbations": 50, "grid_count": 4001,
    "inequality_slack": 1e-6, "seed": None,
}


def cmd_minimize(args) -> int:
    cfg = resolve_config(args, MINIMIZE_DEFAULTS)
    _check_counts(cfg, {"perturbations": 1})
    if "seed" not in cfg:
        raise UsageError("--seed is mandatory for minimize")
    _check_one_dimensional(cfg, "the perturbation family")
    tol = Tolerances(inequality_slack=cfg["inequality_slack"])
    if cfg["constraint"] == "moment":
        rep = min_fisher_fixed_moment(cfg["q"], cfg["alpha"], cfg["target"], cfg["n"],
                                      cfg["perturbations"], cfg["seed"],
                                      cfg["grid_count"], tol)
    elif cfg["constraint"] in ("entropy-power", "entropy_power"):
        rep = min_fisher_fixed_entropy(cfg["q"], cfg["beta"], cfg["target"], cfg["n"],
                                       cfg["perturbations"], cfg["seed"],
                                       cfg["grid_count"], tol)
    else:
        raise UsageError(f"unknown constraint {cfg['constraint']!r} (moment, entropy-power)")
    payload = {
        "value_G": rep.extras["value_G"],
        "min_perturbed": rep.extras["min_perturbed"],
        "worst_gap": rep.extras["worst_gap"],
        "verdict": rep.passed,
        "gap_amplitude_exponent": rep.extras["gap_amplitude_exponent"],
    }
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if rep.passed else EXIT_VERDICT


def cmd_reproduce(args) -> int:
    results = AcceptanceSuite().run_all()
    header = f"# config: seed={SUITE_SEED}\n"
    _emit(header + render_summary(results), args.output)
    return EXIT_PASS if all(r.passed for r in results) else EXIT_VERDICT


# ---------------------------------------------------------------------------

#: subcommand -> (handler, options table, help)
SUBCOMMANDS = {
    "info": (cmd_info, INFO_DEFAULTS, "scalar information functionals of a density"),
    "diffuse": (cmd_diffuse, DIFFUSE_DEFAULTS, "doubly nonlinear diffusion run + de Bruijn check"),
    "crbound": (cmd_crbound, CRBOUND_DEFAULTS, "generalized Cramer-Rao bound report"),
    "qcr": (cmd_qcr, QCR_DEFAULTS, "q-Cramer-Rao product report"),
    "stam": (cmd_stam, STAM_DEFAULTS, "generalized Stam inequality report"),
    "minimize": (cmd_minimize, MINIMIZE_DEFAULTS, "minimum-Fisher variational certification"),
    "reproduce": (cmd_reproduce, {}, "run the full acceptance suite"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfisher",
        description="q-entropies, generalized Fisher information, q-Gaussians, "
                    "nonlinear diffusion, and their identity/inequality checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, defaults, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--output", "-o", help="report path (default stdout)")
        if defaults:
            p.add_argument("--config", help="flat key = value configuration file")
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=_option_type(default))
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, StabilityError, ValueError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
