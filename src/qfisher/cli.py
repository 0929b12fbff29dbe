"""Command-line front end.

Subcommands: info, diffuse, crbound, qcr, stam, minimize, reproduce.  A
subcommand's *_DEFAULTS dict is the one declaration of its options: key
`some_key` is the flag `--some-key` and the config-file key `some_key`, and
a value from either takes the default's type.  No other flag or key is
accepted; `--seed` exists only on crbound, stam and minimize (on the first
two, exactly when trials or perturbations > 0), and `reproduce` (pinned
suite seed) takes only -o.  A command takes one Hoelder exponent, alpha on
info, crbound, qcr and minimize and beta on diffuse and stam, and computes
its conjugate; it judges each verdict at a pinned tolerance.  qcr and stam
also report how far the unperturbed q-Gaussian reads from equality
(`equality_gap`, |product - n| or |ratio - 1|) and exit 1 when it exceeds
criteria 6 and 7's EQUALITY_TOL, beside their inequality verdict.  A given
option the selected model, family or init never reads, an unknown selector
value (`_selector_reads`), a count below its least value (LEAST_COUNT;
minimize: perturbations >= 1, crbound: trials 0 or >= 2), an even grid
count (on info, one not 4k + 1 with k >= 2), a value of POSITIVE_KEYS not
finite and > 0, of FINITE_KEYS not finite or of the Hoelder exponent not
finite and > 1, a pair of ORDERED_PAIRS out of order, a --config file
that cannot be read and an -o path that is a directory or lies in no
directory are refused.  A flat key = value file (--config) is overridden
by flags; every report embeds the resolved options that its run read.
Reports are deterministic byte-for-byte for identical config + seed: JSON is
emitted with sorted keys and shortest round-trip floats, CSV with 17
significant digits and '.' decimal.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage error,
3 numerical failure.
Importing this module loads only the standard library: a handler imports
numpy and the modules it runs once resolve_config has checked its options
(crbound's model checks read the model registry, and numpy with it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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
    """Flat `key = value` lines of UTF-8 text; '#' starts a comment.  Values
    stay strings.  A file that cannot be read is a usage error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise UsageError(f"cannot read config file {path}: {reason}") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _check_output(path: str):
    """An -o path that is a directory, or whose directory does not exist,
    is a usage error: refused before the work whose report it would lose."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write report {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write report {path}: no directory {parent}")


def _option_type(default):
    """An option's values take its default's type; a None default (the
    seed, unset) stands for an int."""
    return int if default is None else type(default)


def resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags, every value of its default's
    type.  The -o path, the config file, counts, POSITIVE_KEYS, FINITE_KEYS,
    the Hoelder exponent, the selectors and then ORDERED_PAIRS are checked
    before any work.  The result holds only the options the run reads: not
    the unset seed (None), nor an option that the selected model, family or
    init never reads."""
    if args.output:
        _check_output(args.output)
    cfg = dict(defaults)
    config = vars(args).get("config")  # reproduce takes no --config
    file_cfg = read_config_file(config) if config else {}
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
    cfg = {key: val for key, val in cfg.items() if val is not None}
    explicit = set(file_cfg) | set(flags)
    _check_counts(cfg)
    for key in POSITIVE_KEYS:
        if key in cfg and not 0 < cfg[key] < math.inf:
            raise UsageError(f"{key} must be finite and > 0, got {cfg[key]}")
    for key in FINITE_KEYS:
        if key in cfg and not math.isfinite(cfg[key]):
            raise UsageError(f"{key} must be finite, got {cfg[key]}")
    for key in ("alpha", "beta"):  # a command's one Hoelder exponent
        if key in cfg and not 1 < cfg[key] < math.inf:
            raise UsageError(f"{key} must be finite and exceed 1, got {cfg[key]}")
    selectors = _selector_reads(cfg.keys())
    for selector in selectors:
        reads, value = selectors[selector], cfg[selector]
        if value not in reads:
            raise UsageError(f"unknown {selector} {value!r} ({', '.join(reads)})")
        unread = set().union(*reads.values()) - reads[value]
        if explicit & unread:
            key = min(explicit & unread)
            raise UsageError(f"{key} = {cfg[key]} is never read: {selector} = {value}")
        cfg = {key: val for key, val in cfg.items() if key not in unread}
    for lo, hi in ORDERED_PAIRS:
        if lo in cfg and not cfg[lo] < cfg[hi]:
            raise UsageError(f"{lo} must be below {hi}, got {cfg[lo]} and {cfg[hi]}")
    return cfg


def _model_options(name: str) -> list:
    """A registry model's options: its builder's parameters but count and theta."""
    import inspect
    from .estimation import MODEL_REGISTRY
    return [key for key in inspect.signature(MODEL_REGISTRY[name]).parameters
            if key not in ("count", "theta")]


def _selector_reads(keys) -> dict:
    """selector -> {value: the options of the selector's values that this
    value reads}, for the selectors among `keys`; every model reads alpha,
    its error-moment order, and n.  Only a model selector loads the model
    registry, and with it numpy."""
    reads = {"family": {"uniform": {"lo", "hi"}, "qgaussian": {"gamma"}},
             "init": {"barenblatt": set(), "gaussian": {"sigma0"}},
             "constraint": {"moment": set(), "entropy-power": set()}}
    if "model" in keys:
        from .estimation import MODEL_REGISTRY
        reads["model"] = {name: {"alpha", "n", *_model_options(name)} for name in MODEL_REGISTRY}
    return {selector: reads[selector] for selector in reads.keys() & keys}


#: least value of each count option and of the seed; a grid count must also
#: be odd (composite Simpson) and n_logs gives the centered differences of dS/dt
LEAST_COUNT = {"grid_count": 3, "n_logs": 3, "perturbations": 0, "trials": 0, "n": 1, "seed": 0}
#: options whose value must be finite and > 0: the minimize target and the scales
POSITIVE_KEYS = ("target", "gamma", "sigma", "sigma0")
#: options whose value must be finite
FINITE_KEYS = ("q", "theta", "m", "t0", "t_end", "lo", "hi", "grid_lo", "grid_hi")
#: (low, high) option pairs whose values must satisfy low < high
ORDERED_PAIRS = (("lo", "hi"), ("grid_lo", "grid_hi"), ("t0", "t_end"))


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
    return json.dumps(_canonical(dict(payload, config=cfg)), sort_keys=True, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers (return process exit code)
# ---------------------------------------------------------------------------

INFO_DEFAULTS = {
    "family": "qgaussian", "q": 1.0, "alpha": 2.0, "gamma": 0.5,
    "n": 1, "lo": 0.0, "hi": 1.0, "grid_count": 4001,
}


def cmd_info(args) -> int:
    cfg = resolve_config(args, INFO_DEFAULTS)
    # phi_fisher_refined's own condition, refused before anything is loaded
    count = cfg["grid_count"]
    if count < 9 or (count - 1) % 4:
        raise UsageError(f"grid_count: the refinement diagnostic needs a count = 4k + 1 with "
                         f"k >= 2, got {count}")
    import numpy as np
    from .core import Axis, density_from_callable
    from .info_measures import entropy_power, m_q, phi_fisher_refined, renyi_entropy, tsallis_entropy
    from .qgaussian import QGaussianParams, grid_density
    q, alpha = cfg["q"], cfg["alpha"]
    if cfg["family"] == "qgaussian":
        f = grid_density(QGaussianParams(q, alpha, cfg["gamma"], cfg["n"]), cfg["grid_count"])
    else:
        _check_one_dimensional(cfg, "the uniform family")
        ax = Axis(cfg["lo"], cfg["hi"], cfg["grid_count"])
        f = density_from_callable(ax, lambda x: np.ones_like(x) / (cfg["hi"] - cfg["lo"]))
    beta = alpha / (alpha - 1.0)
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
    "m": 2.0, "beta": 2.0, "n": 1, "init": "barenblatt", "t0": 1.0, "t_end": 2.0,
    "sigma0": 1.0, "grid_lo": -3.5, "grid_hi": 3.5, "grid_count": 1001, "n_logs": 201,
}


def cmd_diffuse(args) -> int:
    cfg = resolve_config(args, DIFFUSE_DEFAULTS)
    if not args.output:
        raise UsageError("diffuse requires --output for the trajectory CSV")
    _check_one_dimensional(cfg, "the diffusion solver")
    if cfg["init"] == "barenblatt" and cfg["t0"] <= 0:
        raise UsageError("barenblatt initial data needs t0 > 0")
    import numpy as np
    from .core import Axis, density_from_callable
    from .diffusion import (DiffusionState, debruijn_check, evolve, phi_monotonicity_check,
                            trajectory_csv_rows)
    from .qgaussian import DiffusionParams, barenblatt_density
    dp = DiffusionParams(cfg["m"], cfg["beta"], cfg["n"])
    ax = Axis(cfg["grid_lo"], cfg["grid_hi"], cfg["grid_count"])
    if cfg["init"] == "barenblatt":
        f0 = barenblatt_density(dp, cfg["t0"], ax)
    else:
        s0 = cfg["sigma0"]
        f0 = density_from_callable(
            ax, lambda x: np.exp(-x * x / (2 * s0 * s0)) / np.sqrt(2 * np.pi * s0 * s0))
    state, log = evolve(DiffusionState(dp, cfg["t0"], f0), cfg["t_end"], cfg["n_logs"])
    reports = debruijn_check(log, dp)
    verdicts = [r.passed for r in reports]
    summary = {
        "debruijn_max_rel_err": max(r.gap for r in reports),
        "debruijn_ok": all(verdicts),
        "rows": len(log.times),
        "steps": state.step_count,
    }
    if dp.beta == 2.0:
        mono = phi_monotonicity_check(log)
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
    "model": "gaussian-location", "n": 1, "sigma": 1.0, "q": 2.0, "alpha": 2.0, "gamma": 1.0,
    "theta": 0.0, "trials": 0, "grid_count": 4001, "seed": None,
}


#: crbound's Monte Carlo error moment is inconsistent more than MC_SIGMAS
#: standard errors below rhs; at 3, one correct run in ~740 would fail by chance
MC_SIGMAS = 5.0


def cmd_crbound(args) -> int:
    cfg = resolve_config(args, CRBOUND_DEFAULTS)
    if cfg["trials"] == 1:
        raise UsageError("trials must be 0 or >= 2 (one draw has no jackknife error), got 1")
    _check_seed(cfg, "trials")
    options = _model_options(cfg["model"])
    if "n" not in options:
        _check_one_dimensional(cfg, f"the {cfg['model']} model")
    from .estimation import MODEL_REGISTRY, crm_bound_scalar, mc_error_moment
    model = MODEL_REGISTRY[cfg["model"]](**{key: cfg[key] for key in options},
                                         count=cfg["grid_count"], theta=cfg["theta"])
    est = model.estimator(cfg["alpha"])
    theta = [cfg["theta"]]
    rep = crm_bound_scalar(model, est, theta)
    payload = {"lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap, "passed": rep.passed,
               "equality_residual": rep.extras.get("equality_residual"),
               "c_opt": rep.extras.get("c_opt"), "mc": None, "mc_se": None}
    if "flag" in rep.extras:  # divergent-score-moment: no rhs, nothing to fit
        payload["flag"] = rep.extras["flag"]
    if cfg["trials"]:
        mc, se = mc_error_moment(model, est, theta, cfg["trials"], cfg["seed"])
        payload["mc"], payload["mc_se"] = mc, se
        payload["mc_consistent"] = bool(mc > rep.rhs - MC_SIGMAS * se)
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if rep.passed and payload.get("mc_consistent", True) else EXIT_VERDICT


QCR_DEFAULTS = {"q": 2.0, "alpha": 2.0, "gamma": 1.0, "n": 1, "grid_count": 8001}


def cmd_qcr(args) -> int:
    cfg = resolve_config(args, QCR_DEFAULTS)
    from .core import EQUALITY_TOL, Tolerances
    from .estimation import qcr_product
    from .qgaussian import QGaussianParams, grid_density
    g = grid_density(QGaussianParams(cfg["q"], cfg["alpha"], cfg["gamma"], cfg["n"]),
                     cfg["grid_count"])
    rep = qcr_product(g, cfg["q"], cfg["alpha"], Tolerances(inequality_slack=1e-6))
    equality_gap = abs(rep.lhs - rep.rhs)
    payload = {"product": rep.lhs, "dim": rep.rhs, "gap": rep.gap, "passed": rep.passed,
               "equality_gap": equality_gap, "equality_passed": equality_gap < EQUALITY_TOL}
    payload.update(rep.extras)
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if rep.passed and payload["equality_passed"] else EXIT_VERDICT


STAM_DEFAULTS = {
    "q": 1.0, "beta": 2.0, "gamma": 0.5, "n": 1, "grid_count": 8001, "perturbations": 0,
    "seed": None,
}


def cmd_stam(args) -> int:
    cfg = resolve_config(args, STAM_DEFAULTS)
    _check_seed(cfg, "perturbations")
    if cfg["perturbations"]:
        _check_one_dimensional(cfg, "the perturbation family")
    import numpy as np
    from .core import EQUALITY_TOL, Tolerances
    from .inequalities import stam_ratio
    from .perturb import perturbation_batch
    from .qgaussian import QGaussianParams, grid_density, moment_alpha
    q, beta = cfg["q"], cfg["beta"]
    p = QGaussianParams(q, beta / (beta - 1.0), cfg["gamma"], cfg["n"])
    f = grid_density(p, cfg["grid_count"])
    tol = Tolerances(inequality_slack=1e-4)
    rep = stam_ratio(f, q, beta, tol)
    min_perturbed = None
    verdict = rep.passed
    if cfg["perturbations"]:
        batch = perturbation_batch(p, np.random.default_rng(cfg["seed"]),
                                   cfg["perturbations"], 5, "moment", moment_alpha(p),
                                   min(cfg["grid_count"], 4001))
        min_perturbed = min(stam_ratio(fp, q, beta, tol).lhs for _, _, fp in batch)
        verdict = verdict and min_perturbed > 1.0
    equality_gap = abs(rep.lhs - 1.0)
    payload = {
        "value_G": rep.extras["product_ref"],
        "product_f": rep.extras["product_f"],
        "ratio": rep.lhs,
        "equality_gap": equality_gap,
        "equality_passed": equality_gap < EQUALITY_TOL,
        "min_perturbed": min_perturbed,
        "worst_gap": None if min_perturbed is None else min_perturbed - 1.0,
        "verdict": bool(verdict),
    }
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if verdict and payload["equality_passed"] else EXIT_VERDICT


MINIMIZE_DEFAULTS = {
    "constraint": "moment", "q": 2.0, "alpha": 2.0, "target": 0.2, "n": 1, "perturbations": 50,
    "grid_count": 4001, "seed": None,
}


def cmd_minimize(args) -> int:
    cfg = resolve_config(args, MINIMIZE_DEFAULTS)
    _check_counts(cfg, {"perturbations": 1})
    _check_seed(cfg, "perturbations")
    _check_one_dimensional(cfg, "the perturbation family")
    from .core import Tolerances
    from .inequalities import min_fisher_fixed_entropy, min_fisher_fixed_moment
    common = (cfg["target"], cfg["n"], cfg["perturbations"], cfg["seed"], cfg["grid_count"],
             Tolerances(inequality_slack=1e-6))
    alpha = cfg["alpha"]
    if cfg["constraint"] == "moment":
        rep = min_fisher_fixed_moment(cfg["q"], alpha, *common)
    else:
        rep = min_fisher_fixed_entropy(cfg["q"], alpha / (alpha - 1.0), *common)
    payload = {key: rep.extras[key]
               for key in ("value_G", "min_perturbed", "worst_gap", "gap_amplitude_exponent")}
    payload["verdict"] = rep.passed
    _emit(_json_report(payload, cfg), args.output)
    return EXIT_PASS if rep.passed else EXIT_VERDICT


def cmd_reproduce(args) -> int:
    resolve_config(args, {})
    from .acceptance import SUITE_SEED, AcceptanceSuite, render_summary
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
    # a StabilityError and a root find that does not converge are RuntimeErrors
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
