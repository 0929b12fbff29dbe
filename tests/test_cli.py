"""CLI: config resolution, refusals, report bytes, exit codes."""

import ast
import hashlib
import importlib
import json
import math
import shlex
import sys
import traceback
import warnings
from pathlib import Path

import pytest

from qfisher import cli
from qfisher.cli import (
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VERDICT,
    SUBCOMMANDS,
    UsageError,
    build_parser,
    main,
    resolve_config,
)
from qfisher.core import EQUALITY_TOL
from qfisher.estimation import MODEL_REGISTRY, ParametricModel, gaussian_location_model
from qfisher.reports import VerificationReport
from test_hygiene import readme_lines, rowless
from test_refusals import matches, unreached_refusals

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("q = 1.5\ngamma = 2.0  # comment\n")
        code, out, _ = run_cli(capsys, "qcr", "--config", str(cfg),
                               "--gamma", "0.5", "--grid-count", "8001")
        assert code == EXIT_PASS
        d = json.loads(out)
        assert d["config"]["q"] == 1.5       # from file
        assert d["config"]["gamma"] == 0.5   # flag wins
        assert "threads" not in d["config"]

    def test_file_values_take_the_flag_types(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("q = 2\ngamma = 1\n")
        from_file = run_cli(capsys, "qcr", "--config", str(cfg), "--grid-count", "2001")
        from_flags = run_cli(capsys, "qcr", "--q", "2", "--gamma", "1", "--grid-count", "2001")
        assert from_file == from_flags and from_file[0] == EXIT_PASS
        assert json.loads(from_file[1])["config"]["q"] == 2.0

    def test_file_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        # it used to exit 3, as a "numerical failure"
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(b"q = 2\n\xff = 1\n")
        code, out, err = run_cli(capsys, "qcr", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: cannot read config file {cfg}: 'utf-8' codec ")

    def test_seed_key_only_where_read(self, tmp_path, capsys):
        cfg = tmp_path / "seed.conf"
        cfg.write_text("seed = 5\n")
        code, _, err = run_cli(capsys, "qcr", "--config", str(cfg))
        assert code == EXIT_USAGE and "unknown config keys" in err
        code, out, _ = run_cli(capsys, "stam", "--config", str(cfg), "--grid-count", "2001",
                               "--perturbations", "2")
        assert code == EXIT_PASS and json.loads(out)["config"]["seed"] == 5
        code, out, _ = run_cli(capsys, "stam", "--grid-count", "2001")
        assert code == EXIT_PASS and "seed" not in json.loads(out)["config"]


F, I, S = float, int, str
#: every subcommand's options and their value types
OPTIONS = {
    "info": dict(family=S, q=F, alpha=F, gamma=F, n=I, lo=F, hi=F, grid_count=I),
    "diffuse": dict(m=F, beta=F, n=I, init=S, t0=F, t_end=F, sigma0=F, grid_lo=F,
                    grid_hi=F, grid_count=I, n_logs=I),
    "crbound": dict(model=S, n=I, sigma=F, q=F, alpha=F, gamma=F, theta=F, trials=I,
                    grid_count=I, seed=I),
    "qcr": dict(q=F, alpha=F, gamma=F, n=I, grid_count=I),
    "stam": dict(q=F, beta=F, gamma=F, n=I, grid_count=I, perturbations=I, seed=I),
    "minimize": dict(constraint=S, q=F, alpha=F, target=F, n=I, perturbations=I,
                     grid_count=I, seed=I),
    "reproduce": {},
}
SAMPLE = {F: "0.5", I: "3", S: "x"}
#: the keys no command takes any more: the verdict tolerances are pinned
RETIRED = {"identity_rel", "inequality_slack"}
ALL_KEYS = set().union(*OPTIONS.values(), {"config", "seed"}, RETIRED)


def flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("name", sorted(OPTIONS))
class TestOptionsTable:
    """A subcommand accepts exactly the keys of its options table, plus
    --output and, where it has options, --config."""

    def test_table_is_the_option_list(self, name):
        assert set(SUBCOMMANDS[name][1]) == set(OPTIONS[name])

    def test_accepts_table_keys_with_their_types(self, name):
        parser = build_parser()
        assert parser.parse_args([name, "-o", "r.json"]).output == "r.json"
        if OPTIONS[name]:
            assert parser.parse_args([name, "--config", "f"]).config == "f"
        for key, typ in OPTIONS[name].items():
            value = getattr(parser.parse_args([name, flag(key), SAMPLE[typ]]), key)
            assert type(value) is typ and value == typ(SAMPLE[typ])

    def test_rejects_every_other_key(self, name):
        parser = build_parser()
        others = ALL_KEYS - set(OPTIONS[name]) - ({"config"} if OPTIONS[name] else set())
        abbreviations = ({flag(k)[:-1] for k in OPTIONS[name] if len(k) > 2}
                         - {flag(k) for k in ALL_KEYS})
        for option in sorted({flag(k) for k in others} | abbreviations):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, option, "1"])
            assert exc.value.code == EXIT_USAGE, option
        for key, typ in OPTIONS[name].items():
            if typ is I:
                with pytest.raises(SystemExit):
                    parser.parse_args([name, flag(key), "1.5"])


#: the model scales, which must be finite and > 0 (crbound --sigma -1 used
#: to run as sigma = 1, qcr --gamma nan to exit 3)
SCALE_OPTIONS = [(name, key) for name, (_, defaults, _) in SUBCOMMANDS.items()
                 for key in ("gamma", "sigma") if key in defaults]


def test_tolerance_options_found():
    # each command judges its verdicts at a pinned tolerance: none takes one
    assert not any(RETIRED & set(defaults) for _, defaults, _ in SUBCOMMANDS.values())
    assert {name for name, _ in SCALE_OPTIONS} == {"info", "crbound", "qcr", "stam"}


#: every CLI refusal: a command line and the fragment of the message that
#: names its key.  A --config value is the config file's text, on a command
#: that takes one, unless it is an absolute path; every other argument is a
#: flag.  Each row runs once from its flags and once with the pairs of its
#: command's keys moved into a config file, where a row has such a pair; a
#: row that holds a file's text runs from the file only.  A fragment that starts with one of ARGPARSE's
#: words is argparse's own message.
ARGPARSE = ("unrecognized", "invalid")
REFUSALS = [
    # a flag or subcommand that does not exist
    ("info --inequality-slack 5", "unrecognized arguments: --inequality-slack 5"),
    ("qcr --identity-rel 0.5", "unrecognized arguments: --identity-rel 0.5"),
    ("qcr --seed 5", "unrecognized arguments: --seed 5"),
    ("diffuse --seed 5", "unrecognized arguments: --seed 5"),
    ("reproduce --seed 5", "unrecognized arguments: --seed 5"),
    ("reproduce --config f", "unrecognized arguments: --config f"),
    ("qcr --beta nan", "unrecognized arguments: --beta nan"),
    ("stam --alpha nan", "unrecognized arguments: --alpha nan"),
    ("frobnicate", "invalid choice: 'frobnicate'"),
    # a config file's key that is no option, a value that does not convert,
    # a line that is no pair
    ("qcr --config 'volume = 3'", "unknown config keys: ['volume']"),
    ("qcr --config 'quadrature_rel = 1e-8'", "unknown config keys: ['quadrature_rel']"),
    ("qcr --config 'q = abc'", "config key 'q': expected float, got 'abc'"),
    ("qcr --config 'n = 1.5'", "config key 'n': expected int, got '1.5'"),
    ("qcr --config 'grid_count = 2e3'", "config key 'grid_count': expected int, got '2e3'"),
    ("qcr --config 'q 1.5'", "expected 'key = value', got 'q 1.5'"),
    # a count below its least value, or an even grid count
    ("minimize --perturbations 0 --seed 5", "perturbations must be >= 1, got 0"),
    ("stam --perturbations -3 --seed 5", "perturbations must be >= 0, got -3"),
    ("crbound --trials -5 --seed 1", "trials must be >= 0, got -5"),
    ("crbound --trials 1 --seed 3", "trials must be 0 or >= 2 (one draw has no jackknife"),
    ("qcr --grid-count 4000", "grid_count must be odd and >= 3, got 4000"),
    ("info --grid-count 2", "grid_count must be odd and >= 3, got 2"),
    ("diffuse --n-logs 1", "n_logs must be >= 3, got 1"),
    ("qcr --n 0", "n must be >= 1, got 0"),
    ("crbound --n 0", "n must be >= 1, got 0"),
    ("crbound --trials 10 --seed -1", "seed must be >= 0, got -1"),
    ("stam --perturbations 2 --seed -5", "seed must be >= 0, got -5"),
    # info's refinement diagnostic halves the grid twice
    *[(f"info --grid-count {count}", f"grid_count: the refinement diagnostic needs a count = "
                                     f"4k + 1 with k >= 2, got {count}")
      for count in (4003, 7, 5)],
    # a seed where nothing draws, and none where something does
    ("stam --grid-count 2001 --seed 5", "seed = 5 is never read: perturbations = 0 draws nothing"),
    ("crbound --seed 5", "seed = 5 is never read: trials = 0 draws nothing"),
    ("crbound --trials 100", "--seed is mandatory when trials > 0"),
    ("minimize --constraint moment --target 0.2", "--seed is mandatory when perturbations > 0"),
    # values that must be finite, or finite and > 0, or finite and > 1
    ("qcr --q nan", "q must be finite, got nan"),
    ("info --q inf", "q must be finite, got inf"),
    ("crbound --theta nan", "theta must be finite, got nan"),
    ("crbound --theta inf", "theta must be finite, got inf"),
    ("info --family uniform --hi inf", "hi must be finite, got inf"),
    ("info --family uniform --lo nan", "lo must be finite, got nan"),
    ("diffuse --grid-hi inf", "grid_hi must be finite, got inf"),
    ("diffuse --m nan", "m must be finite, got nan"),
    ("diffuse --t0 nan", "t0 must be finite, got nan"),
    ("diffuse --t-end nan", "t_end must be finite, got nan"),
    *[(f"{name} --{key} {value}", f"{key} must be finite and > 0")
      for name, key in SCALE_OPTIONS for value in ("0", "nan", "inf", "-0.5")],
    ("diffuse --init gaussian --sigma0 0", "sigma0 must be finite and > 0, got 0.0"),
    ("diffuse --sigma0 -1", "sigma0 must be finite and > 0, got -1.0"),
    ("diffuse --sigma0 nan", "sigma0 must be finite and > 0, got nan"),
    *[(f"minimize --constraint {constraint} --target {value} --seed 7",
       "target must be finite and > 0")
      for constraint in ("moment", "entropy-power") for value in ("inf", "nan", "0", "-0.5")],
    ("qcr --alpha nan", "alpha must be finite and exceed 1, got nan"),
    ("stam --beta nan", "beta must be finite and exceed 1, got nan"),
    ("diffuse --beta nan", "beta must be finite and exceed 1, got nan"),
    # an unknown selector value, among them entropy-power's second spelling
    ("crbound --model nope", "unknown model 'nope' (gaussian-location, "),
    ("diffuse --init nope", "unknown init 'nope' (barenblatt, gaussian)"),
    # (the Gaussian of variance sigma^2 is qgaussian at q = 1, gamma = 1/(2 sigma^2))
    ("info --family gaussian", "unknown family 'gaussian' (uniform, qgaussian)"),
    ("minimize --constraint entropy_power --seed 1", "unknown constraint 'entropy_power' ("),
    # an option the selected value never reads
    ("crbound --model escort-pair --sigma 3", "sigma = 3.0 is never read: model = escort-pair"),
    ("crbound --gamma 7 --q 3", "gamma = 7.0 is never read: model = gaussian-location"),
    ("info --lo 5", "lo = 5.0 is never read: family = qgaussian"),
    ("info --family uniform --gamma 2", "gamma = 2.0 is never read: family = uniform"),
    ("diffuse --sigma0 2", "sigma0 = 2.0 is never read: init = barenblatt"),
    # pairs out of order (t0 defaults to 1)
    ("info --family uniform --lo 1 --hi 0", "lo must be below hi, got 1.0 and 0.0"),
    ("diffuse --grid-lo 3 --grid-hi -3", "grid_lo must be below grid_hi, got 3.0 and -3.0"),
    ("diffuse --t-end 0.5", "t0 must be below t_end, got 1.0 and 0.5"),
    ("diffuse --t-end 1", "t0 must be below t_end, got 1.0 and 1.0"),
    # n other than 1 where the computation is 1-D
    ("info --family uniform --n 2", "n = 2 is not supported: the uniform family is 1-D"),
    ("stam --n 2 --perturbations 3 --seed 1",
     "n = 2 is not supported: the perturbation family is 1-D"),
    ("minimize --n 2 --seed 1", "n = 2 is not supported: the perturbation family is 1-D"),
    ("crbound --model escort-pair --n 2", "n = 2 is not supported: the escort-pair model is 1-D"),
    ("crbound --model qgaussian-location --n 3",
     "n = 3 is not supported: the qgaussian-location model is 1-D"),
    ("diffuse --n 2 --init gaussian --t0 0 --t-end 0.1 --grid-lo -10 --grid-hi 10 "
     "--grid-count 401", "n = 2 is not supported: the diffusion solver is 1-D"),
    # diffuse writes its trajectory to -o, and starts a Barenblatt at t0 > 0
    ("diffuse", "diffuse requires --output for the trajectory CSV"),
    ("diffuse --t0 0", "barenblatt initial data needs t0 > 0"),
    # a config file that cannot be read, and a report path that cannot be
    # written: refused before the work, not after it
    ("qcr --config /nonexistent/x.cfg",
     "cannot read config file /nonexistent/x.cfg: No such file or directory"),
    ("qcr --config /", "cannot read config file /: Is a directory"),
    ("qcr --q 2 -o /", "cannot write report /: it is a directory"),
    ("reproduce -o /nonexistent/out.json",
     "cannot write report /nonexistent/out.json: no directory /nonexistent"),
]


def split_row(row: str) -> tuple[list[str], list[str]]:
    """`row`'s argv without the pairs of the keys its command declares nor
    the text of its --config, and the config-file lines they make."""
    name, *rest = shlex.split(row)
    declared = SUBCOMMANDS.get(name, (None, {}))[1]
    argv, lines = [name], []
    for option, value in zip(rest[::2], rest[1::2]):
        key = option[2:].replace("-", "_")
        if key in declared:
            lines.append(f"{key} = {value}")
        elif option == "--config" and declared and not value.startswith("/"):
            lines.append(value)
        else:
            argv += [option, value]
    return argv, lines


def refusal_argv(row: str, fragment: str, source: str, tmp_path) -> list[str]:
    """`row` as run from `source`, with -o tmp_path/out where the row gives
    none and does not refuse its absence."""
    if source == "flag":
        argv = shlex.split(row)
    else:
        argv, lines = split_row(row)
        cfg = tmp_path / "given.conf"
        cfg.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(cfg)]
    if "requires --output" in fragment or "-o" in argv:
        return argv
    return argv + ["-o", str(tmp_path / "out")]


def refusal_cases():
    """A (row, fragment, source) param for each source a row runs from."""
    for row, fragment in REFUSALS:
        argv, lines = split_row(row)
        if "--config" not in row or "--config" in argv:
            yield pytest.param(row, fragment, "flag", id=f"flag-{row}")
        if lines:
            yield pytest.param(row, fragment, "file", id=f"file-{row}")


REFUSAL_CASES = list(refusal_cases())


def _forbid_work(monkeypatch):
    """Make every density build, model build, solver run and suite run fail
    the test.  A handler imports what it calls when it runs, so each is
    patched on the module that defines it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("qgaussian.grid_density", "core.density_from_callable",
                 "qgaussian.barenblatt_density", "diffusion.evolve", "estimation.crm_bound_scalar",
                 "estimation.qcr_product", "inequalities.stam_ratio",
                 "inequalities.min_fisher_fixed_moment", "inequalities.min_fisher_fixed_entropy",
                 "perturb.perturbation_batch", "info_measures.phi_fisher_refined",
                 "acceptance.AcceptanceSuite"):
        monkeypatch.setattr(f"qfisher.{name}", forbidden)
    monkeypatch.setattr(ParametricModel, "__post_init__", forbidden)


@pytest.mark.parametrize("row, fragment, source", REFUSAL_CASES)
def test_refused_before_any_work(row, fragment, source, capsys, tmp_path, monkeypatch):
    _forbid_work(monkeypatch)
    code, out, err = run_cli(capsys, *refusal_argv(row, fragment, source, tmp_path))
    assert code == EXIT_USAGE and out == ""
    own = fragment.startswith(ARGPARSE)
    assert err.startswith("usage: qfisher" if own else "usage error: ") and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def reached_lines(tmp_path_factory):
    """The lines of cli.py whose UsageError some refusal case raises, read
    from the traceback."""
    reached, tmp_path = set(), tmp_path_factory.mktemp("refusals")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forbid_work(monkeypatch)
        for case in REFUSAL_CASES:
            if case.values[1].startswith(ARGPARSE):
                continue
            args = build_parser().parse_args(refusal_argv(*case.values, tmp_path))
            with pytest.raises(UsageError) as exc:
                args.handler(args)
            frame = traceback.extract_tb(exc.value.__traceback__)[-1]
            assert frame.filename == cli.__file__
            reached.add(frame.lineno)
    return reached


def test_every_refusal_has_a_row(reached_lines):
    source = Path(cli.__file__).read_text()
    assert unreached_refusals(source, {"UsageError"}, reached_lines) == []
    # every line a case reached is one the source scan finds
    assert unreached_refusals(source, {"UsageError"}, set()) == sorted(reached_lines)


def test_detects_refusal_without_a_row(reached_lines):
    source = ("def check(cfg):\n    if cfg['n'] > 2:\n        raise UsageError(\n"
              "            'n')\n    raise ValueError('x')\n"
              "def other(cfg):\n    raise UsageError('y') from None\n")
    assert unreached_refusals(source, {"UsageError"}, {7}) == [3]
    cli_source = Path(cli.__file__).read_text()
    planted = cli_source + "\n\ndef _planted(cfg):\n    raise UsageError('planted')\n"
    assert unreached_refusals(planted, {"UsageError"}, reached_lines) == [
        len(cli_source.splitlines()) + 4]


def accepted_options(name, selector, value):
    """The options that resolve_config accepts given explicitly, each at its
    default, beside `selector` = `value`."""
    defaults = SUBCOMMANDS[name][1]
    accepted = set()
    for key, default in defaults.items():
        argv = [name, flag(selector), value]
        if key != selector:
            argv += [flag(key), str(1 if default is None else default)]
        try:
            resolve_config(build_parser().parse_args(argv), defaults)
        except UsageError:
            continue
        accepted.add(key)
    return accepted


@pytest.mark.parametrize("name, selector, value, refused", [
    ("crbound", "model", "gaussian-location", {"q", "gamma"}),
    ("crbound", "model", "qgaussian-location", {"sigma"}),
    ("crbound", "model", "escort-pair", {"sigma"}),
    ("info", "family", "qgaussian", {"lo", "hi"}),
    ("info", "family", "uniform", {"gamma"}),
    ("diffuse", "init", "barenblatt", {"sigma0"}),
    ("diffuse", "init", "gaussian", set()),
    ("minimize", "constraint", "moment", set()),
    ("minimize", "constraint", "entropy-power", set()),
], ids=lambda v: v if isinstance(v, str) else "")
def test_options_each_selected_value_accepts(name, selector, value, refused):
    # alpha (the error-moment order) and n (the 1-D rule refuses n != 1
    # later) are accepted on every model
    assert accepted_options(name, selector, value) == set(SUBCOMMANDS[name][1]) - refused


def test_registered_model_needs_no_cli_change(capsys, monkeypatch):
    # a builder's parameters are its options, count comes from grid_count
    # and theta from theta, and the model names its estimator
    def wide_location_model(sigma: float = 1.0, count: int = 4001, theta: float = 0.0):
        return gaussian_location_model(1, 2.0 * sigma, count, theta)

    monkeypatch.setitem(MODEL_REGISTRY, "wide-location", wide_location_model)
    code, out, _ = run_cli(capsys, "crbound", "--model", "wide-location", "--sigma", "0.75",
                           "--grid-count", "2001")
    d = json.loads(out)
    assert code == EXIT_PASS and d["passed"] is True
    assert d["lhs"] == pytest.approx(1.5, abs=1e-6) and d["rhs"] == pytest.approx(1.5, abs=1e-6)
    for argv, message in [(["--q", "3"], "q = 3.0 is never read: model = wide-location"),
                          (["--n", "2"], "n = 2 is not supported: the wide-location model is 1-D")]:
        code, out, err = run_cli(capsys, "crbound", "--model", "wide-location", *argv)
        assert code == EXIT_USAGE and out == "" and message in err


#: the options of a crbound run of each registry model
MODEL_ARGVS = {"gaussian-location": [], "qgaussian-location": ["--q", "1.5", "--alpha", "2"],
               "escort-pair": ["--q", "2", "--alpha", "2"]}


@pytest.mark.parametrize("theta", ["1", "5"])
@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_location_models_read_theta_0s_bound_at_any_theta(model, theta, capsys):
    # each model's axis is laid around theta: on one around 0, these exited 3
    # with a mass off 1.  rhs moves a little, as its theta step grows with |theta|
    (code0, out0, _), (code, out, _) = (
        run_cli(capsys, "crbound", "--model", model, *MODEL_ARGVS[model], "--theta", value)
        for value in ("0", theta))
    ref, got = json.loads(out0), json.loads(out)
    assert code == code0
    assert got["lhs"] == pytest.approx(ref["lhs"], rel=1e-12)
    assert got["rhs"] == pytest.approx(ref["rhs"], rel=1e-6)


def benchmark_commands(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        cli_workload = importlib.import_module("cli_workload")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [argv for _, argv in cli_workload.commands(7, tmp_path)]


#: the keys of the `config` that each benchmark and README command's report
#: echoes: the options its run reads (every crbound line there is on the
#: gaussian-location model)
ECHOED = {
    "info": {"family", "q", "alpha", "gamma", "n", "grid_count"},
    "diffuse": {"m", "beta", "n", "init", "t0", "t_end", "grid_lo", "grid_hi", "grid_count",
                "n_logs"},
    "crbound": {"model", "n", "sigma", "alpha", "theta", "trials", "grid_count", "seed"},
    "qcr": {"q", "alpha", "gamma", "n", "grid_count"},
    "stam": {"q", "beta", "gamma", "n", "grid_count", "perturbations", "seed"},
    "minimize": {"constraint", "q", "alpha", "target", "n", "perturbations", "grid_count", "seed"},
}


def test_benchmark_and_readme_commands_resolve(tmp_path):
    # resolve only: a refused benchmark command fails the cli workload; the
    # resolved options are what the report's config echoes
    argvs = benchmark_commands(tmp_path) + [line.split() for line in readme_lines(README)]
    assert len(argvs) == 8 + 7
    for argv in argvs:
        args = build_parser().parse_args(argv)
        if SUBCOMMANDS[argv[0]][1]:
            assert set(resolve_config(args, SUBCOMMANDS[argv[0]][1])) == ECHOED[argv[0]], argv



@pytest.mark.parametrize("mc, consistent, exit_code",
                         [(0.6, True, EXIT_PASS), (0.4, False, EXIT_VERDICT)])
def test_monte_carlo_verdict_gates_exit(mc, consistent, exit_code, capsys, monkeypatch):
    # rhs = 1: an error moment 4 standard errors below it is consistent,
    # 6 below is not, and fails the run while the bound itself passes
    monkeypatch.setattr("qfisher.estimation.mc_error_moment",
                        lambda model, est, theta, trials, seed: (mc, 0.1))
    code, out, _ = run_cli(capsys, "crbound", "--model", "gaussian-location",
                           "--trials", "100", "--seed", "4")
    d = json.loads(out)
    assert d["rhs"] == pytest.approx(1.0, abs=1e-6)
    assert code == exit_code and d["passed"] is True and d["mc_consistent"] is consistent


def test_divergent_score_moment_is_reported(capsys, monkeypatch):
    # the flagged report has no equality fit: exit 1 with the flag, no traceback
    flagged = VerificationReport(0.5, math.nan, math.nan, False,
                                 {"flag": "divergent-score-moment"})
    monkeypatch.setattr("qfisher.estimation.crm_bound_scalar", lambda *args: flagged)
    code, out, err = run_cli(capsys, "crbound")
    d = json.loads(out)
    assert code == EXIT_VERDICT and err == ""
    assert d["flag"] == "divergent-score-moment" and d["passed"] is False
    assert d["equality_residual"] is None and d["c_opt"] is None


def test_unconverged_root_find_exit_code(capsys, monkeypatch):
    # core.brentq raises RuntimeError when Brent's method does not converge
    def brentq(*args):
        raise RuntimeError("Failed to converge after 100 iterations")

    monkeypatch.setattr("qfisher.qgaussian.brentq", brentq)
    code, out, err = run_cli(capsys, "minimize", "--constraint", "entropy-power", "--seed", "1")
    assert code == EXIT_NUMERICAL and out == ""
    assert err == "numerical failure: Failed to converge after 100 iterations\n"


#: every CLI run's outcome, by command line (split by shlex and run in an
#: empty directory, where its -o name is written): its exit code, then for
#: exit 0 or 1 the sha256 of stdout, or of (stdout, the -o file) where the
#: line writes one, and for exit 3 the whole message after "numerical
#: failure: ", or its start before a closing "...".  A row may end with
#: closed-form readings of its JSON report (stdout, or the -o file where
#: stdout is empty) as {key: (value, abs_tol)}.  Each subcommand's rows
#: start with its README line, where it has one.
OUTCOMES = {
    # M_2 = 3/5, so I = (9/20)/(9/25) = 5/4
    "info --family qgaussian --q 2 --alpha 2 --gamma 1":
        (0, "0e68897c7d548196e6956a6fec99103ca0e584895dd04d76b9d3ad6fd96570f5",
         {"I": (1.25, 1e-4)}),
    # U(0, 1): S_2 = 0
    "info --family uniform --lo 0 --hi 1 --q 2":
        (0, "dbd52e7355d9c6428ac4efcf1570acfa2d036b036629b3f015f9a129e2e8e15e",
         {"S_q": (0.0, 0.0), "M_q": (1.0, 1e-6), "divergence_flag": (False, 0)}),
    # N(0, I_2): H = ln(2 pi e), N = 2 pi e, I = 2
    "info --n 2 --grid-count 8001":
        (0, "c3f82c8cebbc43b79dacefa32cdd69cd9a91fa7038126174c46298f8b395679f",
         {"H_q": (math.log(2 * math.pi * math.e), 2.8e-8), "N_q": (2 * math.pi * math.e, 1.7e-7),
          "I": (2.0, 2e-6), "divergence_flag": (False, 0)}),
    # q < 1 needs alpha/(1-q) > n
    "info --q 0.2 --alpha 1.5 --n 2":
        (3, "not integrable: q < 1 requires alpha/(1-q) > n, got alpha/(1-q) = 1.875 <= n = 2"),
    "diffuse --m 2 --beta 2 --init barenblatt --t0 1 --t-end 2 -o traj.csv":
        (0, ("d8591ca8fa582b38f9d65355d333094ef63551189e1cf8a1cd9063b4024ce6a0",
             "10db85419d4db63efe40586541dd3dda3fed0a7fb1c6356d64a0d0d58b3aa1f1")),
    "diffuse --m 1 --beta 2 --init gaussian --t0 0 --t-end 0.05 --grid-lo -9 --grid-hi 9 "
    "--grid-count 1001 --n-logs 21 -o traj.csv":
        (0, ("c2f6281ad91cc808a143ae991ce6ba7405d681e158fcba2920a427e47d632220",
             "a2c34244881fb44cc9494673e69b3facaf0fa52b5ba68cb271e9e157695d51b2")),
    # 51 nodes: de Bruijn reads 1.5e-2 off, over its 1e-2
    "diffuse --grid-count 51 -o traj.csv":
        (1, ("b23ab84dfd3f238707e774b4b90dc4be076afb421bd34cdb4b4d9003c54e04a2",
             "2622a6cd5d43f6098a38f22b0d87dbb538b1b7c90bc93350698f165418980cbd")),
    "diffuse --m 0.5 --beta 2 --init gaussian --t0 0 --t-end 0.01 -o traj.csv":
        (3, "explicit solver requires m(beta-1) >= 1: the fast-diffusion range has unbounded "
            "diffusivity where f -> 0"),
    # refused before the first step
    "diffuse --m 2 --beta 1.5 -o traj.csv":
        (3, "about 3.03e+07 steps of dt = 3.30052e-08 needed to reach t = 2, over the budget "
            "of 1000000 (dt is limited at node 499); coarsen the grid or shorten the run"),
    "diffuse --t0 1 --t-end 1.0000000000000002 --n-logs 201 -o traj.csv":
        (3, "log times from t = 1.0 to t_end = 1.0000000000000002 over n_logs = 201 rows are "
            "not strictly increasing"),
    "crbound --model gaussian-location --n 3 --trials 100000 --seed 7":
        (0, "b945a9d3c5c115887b5fda0e3b5351fb9659d1d49b8e83faa480f5bedf99763c"),
    "crbound --model gaussian-location --trials 20000 --seed 4":
        (0, "a0c0af676c32f1f6a2ff0fc4bbb2d45e55cfab6fa8353832837d745eb1675f89",
         {"lhs": (1.0, 1e-6)}),
    "crbound --model escort-pair --q 2 --alpha 2":
        (0, "0f6458a153dfdd7af4296f2bbd1693e952fd8bca376204c421a485bf94a59b10"),
    "crbound --model qgaussian-location --q 1.5 --alpha 3":
        (0, "fe22f12ffb5f4728e8a2b9f3ae7196a7d8f76f302d4552f2ef2ce6d8d1396a74"),
    # two draws read an error moment of 0.13, far below rhs = 1: the bound
    # passes and mc_consistent fails
    "crbound --model gaussian-location --trials 2 --seed 0":
        (1, "0015cd14ca62890d8200afbf9c75e46541194431e122baf329e54d91f479338b"),
    # n sigma^2 underflows to 0 or overflows to inf: refused, with no numpy
    # warning, before a density of NaN mass or an axis is built
    "crbound --model gaussian-location --sigma 1e-300":
        (3, "sigma = 1e-300 gives the variance n sigma^2 = 0.0, which must be finite and > 0"),
    "crbound --model gaussian-location --sigma 1e200":
        (3, "sigma = 1e+200 gives the variance n sigma^2 = inf, which must be finite and > 0"),
    # f's index (2q - 1)/q is 0 at q = 1/2
    "crbound --model escort-pair --q 0.5":
        (3, "the escort pair needs q > 1/2, where f's index (2q - 1)/q is positive; got q = 0.5"),
    "qcr --q 1.5 --alpha 2 --gamma 1":
        (0, "d95fbcd252f8d06792a4271ed525a0a84ac748af1e9df494ecba6648338d76e5",
         {"product": (1.0, 1e-6)}),
    "qcr --grid-count 2001 -o report.json":
        (0, ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "c663042dc9f1f95ff67c154992df3a19b419753b51982e3fcb8ac83c5b296efb"),
         {"product": (1.0, 1e-4)}),
    # radial: the product is n
    "qcr --q 1.5 --alpha 2 --n 2":
        (0, "dfcb62ab3150120f0a092762a54c188f5dc2c5a5cedabc5ecf178f83f605b9dc",
         {"product": (2.0, 1e-6)}),
    "qcr --q 1.5 --alpha 2 --n 3":
        (0, "21b505422305fd458f0885f4d5883693b38bd7a00397f48b45d3c132b42578a5",
         {"product": (3.0, 1e-6)}),
    # the q < 1 tail beyond the grid (ROADMAP item 14) puts the unperturbed
    # reading off equality: by 1.7e-5 at q = 0.8, 4.4e-4 at q = 0.7, and
    # 811.6 at q = 0.4, which fail EQUALITY_TOL but for the first; the
    # inequality verdict holds at all of them
    "qcr --q 0.8 --alpha 2 --gamma 1":
        (0, "f19043b5e5c1b95a605349c42aa6683736782989edca3bf098d0498dbafae470"),
    "qcr --q 0.7 --alpha 2 --gamma 1":
        (1, "a9431e81044b4f53e2e79bc6ff78b5a9a66dd019598fded8c6176442e51ae5fd"),
    "qcr --q 0.4 --alpha 2 --gamma 1":
        (1, "85bbb3f81dce40774396afa9c9209318fbd5c04eec687f519994248b7df43e8f"),
    "qcr --q 0.2 --alpha 1.5 --n 2":
        (3, "not integrable: q < 1 requires alpha/(1-q) > n, got alpha/(1-q) = 1.875 <= n = 2"),
    "stam --q 2 --beta 2 --gamma 1 --perturbations 20 --seed 7":
        (0, "5a49e0b41893e9f9a152a472c11b23ce2c54bade3f684af172be1e5a49441758",
         {"ratio": (1.0, 1e-6)}),
    "stam --q 2 --beta 2 --gamma 1 --grid-count 2001 --perturbations 5 --seed 12":
        (0, "a2d911e6b3b0e33d3c7d69465a1d5b8618d5625a0fd05c92990ab3053c6544eb"),
    "stam --q 2 --beta 2 --n 3":
        (0, "06b780aa8187ca33b9ebc39c1a063727035d18b1b7fb1e2268b2a1c9cdd756c8",
         {"ratio": (1.0, 1e-6)}),
    "stam --q 0.7 --beta 2 --gamma 1":
        (1, "76e4b45f9ff2ba2fe2b487aacbd0a5dc432636ba500076fc41ce962a987ad7d3"),
    "stam --q 0.2 --beta 3 --n 2":
        (3, "not integrable: q < 1 requires alpha/(1-q) > n, got alpha/(1-q) = 1.875 <= n = 2"),
    "minimize --constraint moment --q 2 --alpha 2 --target 0.2 --seed 7":
        (0, "819ff11d16c25dfe4a9429a44de9427b5a3973d4f4f14a6390af7e15593c0004"),
    "minimize --constraint moment --q 2 --alpha 2 --target 0.2 --seed 3 --perturbations 10 "
    "--grid-count 2001":
        (0, "5c99022f1dc09d8d9e574f46dc1b59a8db54881ff4001b6b971f595a85b09e7e"),
    # at q < 1, as in qcr: a perturbed I reads 2.4e-4 below I[G]
    "minimize --constraint moment --q 0.7 --alpha 2 --target 0.2 --seed 1":
        (1, "10f6d960124ff6a10339fdd59ac9108e7df8c959a8a84fd500045915e52ff54e"),
    "minimize --q 0.3 --alpha 1.5 --seed 1":
        (3, "divergent moment: q < 1 requires alpha/(1-q) > n + alpha, got alpha/(1-q) = "
            "2.14286 <= n + alpha = 2.5"),
}


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.mark.parametrize("line", OUTCOMES)
def test_outcome(line, capsys, tmp_path, monkeypatch):
    # run twice, the second time on warm caches, with warnings as errors:
    # both runs give the same bytes
    code, pin, *readings = OUTCOMES[line]
    argv = shlex.split(line)
    written = argv[argv.index("-o") + 1] if "-o" in argv else None
    runs = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_cli(capsys, *argv)
        path = written and run_dir / written
        runs.append((*got, path.read_bytes() if path and path.exists() else None))
    assert runs[0] == runs[1]
    got_code, out, err, report = runs[0]
    assert got_code == code
    if code == EXIT_NUMERICAL:
        assert out == "" and report is None
        assert err.endswith("\n") and matches(err[:-1], f"numerical failure: {pin}"), err
        return
    assert err == ""
    assert (sha256(out) if written is None else (sha256(out), sha256(report))) == pin
    report = json.loads(out or report)
    for key, (value, tol) in (readings[0] if readings else {}).items():
        assert abs(report[key] - value) <= tol, key
    # the distance from the equality case, and its verdict
    if argv[0] in ("qcr", "stam"):
        reading = report["product"] - report["dim"] if argv[0] == "qcr" else report["ratio"] - 1.0
        assert report["equality_gap"] == abs(reading)
        assert report["equality_passed"] is (report["equality_gap"] < EQUALITY_TOL)


def outcomeless(readme: str, source: str, rows) -> list[str]:
    """README `qfisher` lines that are not rows, then "name: exit N" for each
    exit code a subcommand must reach that none of its rows does: 0 and 3,
    and 1 where a `return` of its handler in `source` names EXIT_VERDICT.
    reproduce is exempt: its pinned suite reaches only exit 0."""
    handlers = {node.name: node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef)}
    missing = [line for line in rowless(readme, rows) if line.split()[0] != "reproduce"]
    for name, (handler, _, _) in SUBCOMMANDS.items():
        if name == "reproduce":
            continue
        named = {node.id for ret in ast.walk(handlers[handler.__name__])
                 if isinstance(ret, ast.Return) for node in ast.walk(ret)
                 if isinstance(node, ast.Name)}
        needed = {EXIT_PASS, EXIT_NUMERICAL} | ({EXIT_VERDICT} if "EXIT_VERDICT" in named else set())
        reached = {row[0] for line, row in rows.items() if line.split()[0] == name}
        missing += [f"{name}: exit {code}" for code in sorted(needed - reached)]
    return missing


def test_every_outcome_has_a_row():
    assert outcomeless(README, Path(cli.__file__).read_text(), OUTCOMES) == []


def test_detects_outcome_without_a_row():
    source = Path(cli.__file__).read_text()
    kept = {line: row for line, row in OUTCOMES.items()
            if line != "qcr --q 1.5 --alpha 2 --gamma 1"
            and not (line.startswith("stam") and row[0] == EXIT_VERDICT)
            and not (line.startswith("minimize") and row[0] == EXIT_NUMERICAL)}
    assert outcomeless(README, source, kept) == [
        "qcr --q 1.5 --alpha 2 --gamma 1", "stam: exit 1", "minimize: exit 3"]
    # a handler that comes to return EXIT_VERDICT needs a row that exits 1
    end_of_info = "    return EXIT_PASS\n\n\nDIFFUSE_DEFAULTS"
    planted = source.replace(end_of_info, end_of_info.replace(
        "EXIT_PASS", "EXIT_PASS if payload['I'] > 0 else EXIT_VERDICT"))
    assert planted != source
    assert outcomeless(README, planted, OUTCOMES) == ["info: exit 1"]
