"""CLI: config resolution, report formats, determinism, exit codes."""

import ast
import hashlib
import importlib
import json
import math
import re
import shlex
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
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
from qfisher.estimation import MODEL_REGISTRY, ParametricModel, gaussian_location_model
from qfisher.reports import VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_uniform_unit_interval_s2_zero(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--family", "uniform",
                               "--lo", "0", "--hi", "1", "--q", "2")
        assert code == EXIT_PASS
        d = json.loads(out)
        assert d["S_q"] == 0.0
        assert d["M_q"] == pytest.approx(1.0)
        assert d["divergence_flag"] is False
        assert d["config"]["family"] == "uniform"

    def test_qgaussian_fields(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--family", "qgaussian",
                               "--q", "2", "--alpha", "2", "--gamma", "1")
        assert code == EXIT_PASS
        d = json.loads(out)
        for key in ("M_q", "S_q", "H_q", "N_q", "phi", "I", "divergence_flag"):
            assert key in d
        assert d["I"] == pytest.approx(1.25, abs=1e-4)


class TestDeterminism:
    def test_qcr_byte_identical(self, capsys):
        a = run_cli(capsys, "qcr", "--q", "2", "--alpha", "2", "--grid-count", "2001")
        b = run_cli(capsys, "qcr", "--q", "2", "--alpha", "2", "--grid-count", "2001")
        assert a == b and a[0] == EXIT_PASS

    def test_minimize_byte_identical(self, capsys):
        args = ("minimize", "--constraint", "moment", "--q", "2", "--alpha", "2",
                "--target", "0.2", "--seed", "3", "--perturbations", "10",
                "--grid-count", "2001")
        a = run_cli(capsys, *args)
        b = run_cli(capsys, *args)
        assert a == b and a[0] == EXIT_PASS


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


def unreached_refusals(source: str, reached: set) -> list[str]:
    """"line N" for each `raise UsageError` of `source` at a line not in
    `reached`."""
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and getattr(node.exc.func, "id", None) == "UsageError")
    return [f"line {line}" for line in lines if line not in reached]


def test_every_refusal_has_a_row(reached_lines):
    source = Path(cli.__file__).read_text()
    assert unreached_refusals(source, reached_lines) == []
    # every line a case reached is one the source scan finds
    assert unreached_refusals(source, set()) == [f"line {line}" for line in sorted(reached_lines)]


def test_detects_refusal_without_a_row(reached_lines):
    source = ("def check(cfg):\n    if cfg['n'] > 2:\n        raise UsageError(\n"
              "            'n')\n    raise ValueError('x')\n"
              "def other(cfg):\n    raise UsageError('y') from None\n")
    assert unreached_refusals(source, {7}) == ["line 3"]
    cli_source = Path(cli.__file__).read_text()
    planted = cli_source + "\n\ndef _planted(cfg):\n    raise UsageError('planted')\n"
    assert unreached_refusals(planted, reached_lines) == [
        f"line {len(cli_source.splitlines()) + 4}"]


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
    argvs = benchmark_commands(tmp_path) + [line.split() for line in README_LINES]
    assert len(argvs) == 8 + 7
    for argv in argvs:
        args = build_parser().parse_args(argv)
        if SUBCOMMANDS[argv[0]][1]:
            assert set(resolve_config(args, SUBCOMMANDS[argv[0]][1])) == ECHOED[argv[0]], argv


class TestRadial:
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_qcr_at_default_grid(self, n, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "qcr", "--q", "1.5", "--alpha", "2", "--n", n)
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_PASS
        d = json.loads(out)
        assert d["dim"] == float(n) and d["config"]["grid_count"] == 8001
        assert d["product"] == pytest.approx(float(n), abs=1e-6)

    def test_info_standard_normal_in_the_plane(self, capsys):
        # N(0, I_2): H = ln(2 pi e), N = 2 pi e, I = 2
        code, out, _ = run_cli(capsys, "info", "--n", "2", "--grid-count", "8001")
        assert code == EXIT_PASS
        d = json.loads(out)
        assert d["H_q"] == pytest.approx(np.log(2 * np.pi * np.e), rel=1e-8)
        assert d["N_q"] == pytest.approx(2 * np.pi * np.e, rel=1e-8)
        assert d["I"] == pytest.approx(2.0, rel=1e-6)
        assert d["divergence_flag"] is False

    def test_stam_without_perturbations(self, capsys):
        code, out, _ = run_cli(capsys, "stam", "--q", "2", "--beta", "2", "--n", "3")
        assert code == EXIT_PASS
        assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-6)


class TestNumericalErrors:
    def test_fast_diffusion_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "diffuse", "--m", "0.5", "--beta", "2",
                               "--init", "gaussian", "--t0", "0", "--t-end", "0.01",
                               "-o", str(tmp_path / "t.csv"))
        assert code == EXIT_NUMERICAL
        assert "fast-diffusion" in err

    def test_step_budget_exit_code(self, capsys, tmp_path):
        # (m, beta) = (2, 1.5) needs ~3e7 steps at the default grid: refused, not run
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "diffuse", "--m", "2", "--beta", "1.5",
                               "-o", str(tmp_path / "t.csv"))
        assert code == EXIT_NUMERICAL
        assert time.perf_counter() - start < 5.0
        assert "budget" in err
        assert not (tmp_path / "t.csv").exists()

    def test_log_times_not_increasing_exit_code(self, capsys, tmp_path):
        # refused before the first step, naming t0, t_end and n_logs
        code, _, err = run_cli(capsys, "diffuse", "--t0", "1", "--t-end", "1.0000000000000002",
                               "--n-logs", "201", "-o", str(tmp_path / "t.csv"))
        assert code == EXIT_NUMERICAL
        assert "t = 1.0 to t_end = 1.0000000000000002 over n_logs = 201" in err
        assert not (tmp_path / "t.csv").exists()

    def test_nonintegrable_params_exit_code(self, capsys):
        # q < 1 needs alpha/(1-q) > n: violated at n = 2, q = 0.2, alpha = 1.5
        code, _, err = run_cli(capsys, "qcr", "--q", "0.2", "--alpha", "1.5", "--n", "2")
        assert code == EXIT_NUMERICAL
        assert "integrable" in err

    def test_unconverged_root_find_exit_code(self, capsys, monkeypatch):
        # core.brentq raises RuntimeError when Brent's method does not converge
        def brentq(*args):
            raise RuntimeError("Failed to converge after 100 iterations")

        monkeypatch.setattr("qfisher.qgaussian.brentq", brentq)
        code, out, err = run_cli(capsys, "minimize", "--constraint", "entropy-power", "--seed", "1")
        assert code == EXIT_NUMERICAL and out == ""
        assert err == "numerical failure: Failed to converge after 100 iterations\n"


class TestDiffuse:
    def test_csv_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run_cli(capsys, "diffuse", "--m", "1", "--beta", "2",
                               "--init", "gaussian", "--t0", "0", "--t-end", "0.05",
                               "--grid-lo", "-9", "--grid-hi", "9",
                               "--grid-count", "1001", "--n-logs", "21",
                               "-o", str(out_path))
        assert code == EXIT_PASS
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,mass,M_q,S_q,phi,dSdt_fd,rhs_identity,rel_err"
        assert len(lines) == 22
        summary = json.loads(out)
        assert summary["debruijn_ok"] and summary["monotonicity_ok"]

class TestCrbound:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "crbound", "--model", "gaussian-location",
                               "--trials", "20000", "--seed", "4")
        assert code == EXIT_PASS
        d = json.loads(out)
        for key in ("lhs", "rhs", "gap", "equality_residual", "mc", "mc_se"):
            assert key in d
        assert d["lhs"] == pytest.approx(1.0, abs=1e-6)
        assert d["mc_consistent"] is True

    @pytest.mark.parametrize("mc, consistent, exit_code",
                             [(0.6, True, EXIT_PASS), (0.4, False, EXIT_VERDICT)])
    def test_monte_carlo_verdict_gates_exit(self, mc, consistent, exit_code, capsys,
                                            monkeypatch):
        # rhs = 1: an error moment 4 standard errors below it is consistent,
        # 6 below is not, and fails the run while the bound itself passes
        monkeypatch.setattr("qfisher.estimation.mc_error_moment",
                            lambda model, est, theta, trials, seed: (mc, 0.1))
        code, out, _ = run_cli(capsys, "crbound", "--model", "gaussian-location",
                               "--trials", "100", "--seed", "4")
        d = json.loads(out)
        assert d["rhs"] == pytest.approx(1.0, abs=1e-6)
        assert code == exit_code and d["passed"] is True and d["mc_consistent"] is consistent

    def test_divergent_score_moment_is_reported(self, capsys, monkeypatch):
        # the flagged report has no equality fit: exit 1 with the flag, no traceback
        flagged = VerificationReport(0.5, math.nan, math.nan, False,
                                     {"flag": "divergent-score-moment"})
        monkeypatch.setattr("qfisher.estimation.crm_bound_scalar", lambda *args: flagged)
        code, out, err = run_cli(capsys, "crbound")
        d = json.loads(out)
        assert code == EXIT_VERDICT and err == ""
        assert d["flag"] == "divergent-score-moment" and d["passed"] is False
        assert d["equality_residual"] is None and d["c_opt"] is None

    def test_nan_mass_exit_code(self, capsys):
        # n sigma^2 underflows to 0 or overflows to inf: refused, with no
        # numpy warning, before a density of NaN mass or an axis is built
        for sigma, var in (("1e-300", "0.0"), ("1e200", "inf")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "crbound", "--model", "gaussian-location",
                                         "--sigma", sigma)
            assert code == EXIT_NUMERICAL and out == ""
            assert err == (f"numerical failure: sigma = {float(sigma)} gives the variance "
                           f"n sigma^2 = {var}, which must be finite and > 0\n")

    def test_escort_pair_names_the_q_it_refuses(self, capsys):
        # f's index (2q - 1)/q is 0 at q = 1/2: the message used to name it as q
        code, out, err = run_cli(capsys, "crbound", "--model", "escort-pair", "--q", "0.5")
        assert code == EXIT_NUMERICAL and out == ""
        assert err == ("numerical failure: the escort pair needs q > 1/2, where f's index "
                       "(2q - 1)/q is positive; got q = 0.5\n")

    def test_escort_pair_model(self, capsys):
        code, out, _ = run_cli(capsys, "crbound", "--model", "escort-pair",
                               "--q", "2", "--alpha", "2")
        assert code == EXIT_PASS
        d = json.loads(out)
        assert d["lhs"] >= d["rhs"] - 1e-9


class TestStamCommand:
    def test_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "stam", "--q", "2", "--beta", "2",
                               "--gamma", "1", "--grid-count", "2001",
                               "--perturbations", "5", "--seed", "12")
        assert code == EXIT_PASS
        d = json.loads(out)
        for key in ("value_G", "min_perturbed", "worst_gap", "verdict", "ratio"):
            assert key in d
        assert d["verdict"] is True
        assert d["min_perturbed"] > 1.0


def test_output_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "qcr", "--grid-count", "2001", "-o", str(out_path))
    assert code == EXIT_PASS
    assert out == ""
    d = json.loads(out_path.read_text())
    assert d["product"] == pytest.approx(1.0, abs=1e-4)


#: sha256 of the stdout of each README `qfisher` line but `reproduce` (whose
#: body test_acceptance pins), plus two crbound runs off the Gaussian model;
#: the diffuse entry pins (stdout, CSV)
REPORT_SHA256 = {
    "info --family qgaussian --q 2 --alpha 2 --gamma 1":
        "0e68897c7d548196e6956a6fec99103ca0e584895dd04d76b9d3ad6fd96570f5",
    "diffuse --m 2 --beta 2 --init barenblatt --t0 1 --t-end 2 -o traj.csv":
        ("d8591ca8fa582b38f9d65355d333094ef63551189e1cf8a1cd9063b4024ce6a0",
         "10db85419d4db63efe40586541dd3dda3fed0a7fb1c6356d64a0d0d58b3aa1f1"),
    "crbound --model gaussian-location --n 3 --trials 100000 --seed 7":
        "b945a9d3c5c115887b5fda0e3b5351fb9659d1d49b8e83faa480f5bedf99763c",
    "qcr --q 1.5 --alpha 2 --gamma 1":
        "d95fbcd252f8d06792a4271ed525a0a84ac748af1e9df494ecba6648338d76e5",
    "stam --q 2 --beta 2 --gamma 1 --perturbations 20 --seed 7":
        "5a49e0b41893e9f9a152a472c11b23ce2c54bade3f684af172be1e5a49441758",
    "minimize --constraint moment --q 2 --alpha 2 --target 0.2 --seed 7":
        "819ff11d16c25dfe4a9429a44de9427b5a3973d4f4f14a6390af7e15593c0004",
    "crbound --model escort-pair --q 2 --alpha 2":
        "0f6458a153dfdd7af4296f2bbd1693e952fd8bca376204c421a485bf94a59b10",
    "crbound --model qgaussian-location --q 1.5 --alpha 3":
        "fe22f12ffb5f4728e8a2b9f3ae7196a7d8f76f302d4552f2ef2ce6d8d1396a74",
}
ROOT = Path(__file__).resolve().parents[1]
README_LINES = re.findall(r"^qfisher (.*)$", (ROOT / "README.md").read_text(), re.M)


def test_every_readme_report_is_pinned():
    assert set(README_LINES) - {"reproduce -o summary.txt"} <= set(REPORT_SHA256)


@pytest.mark.parametrize("line", sorted(REPORT_SHA256))
def test_report_matches_pinned_bytes(line, capsys, tmp_path):
    argv = line.split()
    if "-o" in argv:
        csv = tmp_path / argv[argv.index("-o") + 1]
        argv[argv.index("-o") + 1] = str(csv)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    digest = hashlib.sha256(out.encode()).hexdigest()
    if "-o" in argv:
        digest = (digest, hashlib.sha256(csv.read_bytes()).hexdigest())
    assert digest == REPORT_SHA256[line]


#: sha256 of the qcr and stam README reports before they carried the
#: equality fields
PRE_EQUALITY_SHA256 = {
    "qcr --q 1.5 --alpha 2 --gamma 1":
        "72a5cafd04dc99e16658479f51f59947ff298b312ef9862fca2414889e38bf0a",
    "stam --q 2 --beta 2 --gamma 1 --perturbations 20 --seed 7":
        "f96c67b7f7a6ac45782d551617bb3105c31c400f5482ce53cd135c3ecbc6b573",
}


@pytest.mark.parametrize("line", sorted(PRE_EQUALITY_SHA256))
def test_equality_fields_only_add_to_the_report(line, capsys):
    # with equality_gap and equality_passed cut, the report is the one
    # these lines printed before the fields existed, byte for byte
    code, out, _ = run_cli(capsys, *line.split())
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report.pop("equality_passed") is True and report.pop("equality_gap") < 1e-6
    cut = json.dumps(report, sort_keys=True, allow_nan=True) + "\n"
    assert hashlib.sha256(cut.encode()).hexdigest() == PRE_EQUALITY_SHA256[line]


@pytest.mark.parametrize("line, passed", [
    ("qcr --q 0.8 --alpha 2 --gamma 1", True),
    ("qcr --q 1.5 --alpha 2 --n 3", True),
    ("qcr --q 0.7 --alpha 2 --gamma 1", False),
    ("qcr --q 0.4 --alpha 2 --gamma 1", False),
    ("stam --q 0.7 --beta 2 --gamma 1", False),
])
def test_equality_check_sets_the_exit_code(line, passed, capsys):
    # the q < 1 tail beyond the grid (ROADMAP item 14) puts the unperturbed
    # reading off equality: by 1.7e-5 at q = 0.8, 4.4e-4 at q = 0.7, and
    # 811.6 at q = 0.4.  The inequality verdict holds at all of them
    code, out, _ = run_cli(capsys, *line.split())
    d = json.loads(out)
    reading = d["product"] - d["dim"] if "product" in d else d["ratio"] - 1.0
    assert d["equality_gap"] == abs(reading)
    assert d["equality_passed"] is passed is (d["equality_gap"] < 1e-4)
    assert d.get("passed", d.get("verdict")) is True
    assert code == (EXIT_PASS if passed else EXIT_VERDICT)
