"""CLI: config resolution, report formats, determinism, exit codes."""

import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from qfisher.cli import (
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VERDICT,
    SUBCOMMANDS,
    build_parser,
    main,
    read_config_file,
)


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

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("q 1.5\n")
        with pytest.raises(ValueError):
            read_config_file(str(cfg))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        for line in ("volume = 3", "quadrature_rel = 1e-8"):
            cfg.write_text(line + "\n")
            code, _, err = run_cli(capsys, "qcr", "--config", str(cfg))
            assert code == EXIT_USAGE
            assert "unknown config keys" in err


    def test_file_values_take_the_flag_types(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("q = 2\ngamma = 1\n")
        from_file = run_cli(capsys, "qcr", "--config", str(cfg), "--grid-count", "2001")
        from_flags = run_cli(capsys, "qcr", "--q", "2", "--gamma", "1", "--grid-count", "2001")
        assert from_file == from_flags and from_file[0] == EXIT_PASS
        assert json.loads(from_file[1])["config"]["q"] == 2.0

    @pytest.mark.parametrize("line", ["q = abc", "n = 1.5", "grid_count = 2e3"])
    def test_unconvertible_value_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "qcr", "--config", str(cfg))
        key = line.split(" =")[0]
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and repr(key) in err

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
    "info": dict(family=S, q=F, alpha=F, beta=F, gamma=F, n=I, lo=F, hi=F, sigma=F,
                 grid_count=I),
    "diffuse": dict(m=F, beta=F, alpha=F, n=I, init=S, t0=F, t_end=F, sigma0=F, grid_lo=F,
                    grid_hi=F, grid_count=I, n_logs=I, identity_rel=F, inequality_slack=F),
    "crbound": dict(model=S, n=I, sigma=F, q=F, alpha=F, beta=F, gamma=F, theta=F, trials=I,
                    grid_count=I, inequality_slack=F, seed=I),
    "qcr": dict(q=F, alpha=F, beta=F, gamma=F, n=I, grid_count=I, inequality_slack=F),
    "stam": dict(q=F, alpha=F, beta=F, gamma=F, n=I, grid_count=I, perturbations=I,
                 inequality_slack=F, seed=I),
    "minimize": dict(constraint=S, q=F, alpha=F, beta=F, target=F, n=I, perturbations=I,
                     grid_count=I, inequality_slack=F, seed=I),
    "reproduce": {},
}
SAMPLE = {F: "0.5", I: "3", S: "x"}
ALL_KEYS = set().union(*OPTIONS.values(), {"config", "seed", "identity_rel", "inequality_slack"})


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


@pytest.mark.parametrize("argv", [
    ["info", "--inequality-slack", "5"],
    ["qcr", "--identity-rel", "0.5"],
    ["qcr", "--seed", "5"],
    ["diffuse", "--seed", "5"],
    ["reproduce", "--seed", "5"],
    ["reproduce", "--config", "f"],
], ids=" ".join)
def test_unread_option_rejected(argv, capsys, tmp_path):
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, count_key", [
    (["stam", "--grid-count", "2001"], "perturbations"),
    (["crbound"], "trials"),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_seed_refused_when_nothing_draws(argv, count_key, source, capsys, tmp_path):
    out_path = tmp_path / "out"
    if source == "flag":
        extra = ["--seed", "5"]
    else:
        cfg = tmp_path / "seed.conf"
        cfg.write_text(f"seed = 5\n{count_key} = 0\n")
        extra = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv, *extra, "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:") and "seed = 5" in err and count_key in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, key", [
    (["minimize", "--perturbations", "0", "--seed", "5"], "perturbations"),
    (["stam", "--perturbations", "-3", "--seed", "5"], "perturbations"),
    (["crbound", "--trials", "-5", "--seed", "1"], "trials"),
    (["crbound", "--trials", "1", "--seed", "3"], "trials"),  # no jackknife error of one draw
    (["qcr", "--grid-count", "4000"], "grid_count"),
    (["info", "--grid-count", "2"], "grid_count"),
    (["diffuse", "--n-logs", "1"], "n_logs"),
], ids=" ".join)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_count_below_least_value_is_usage_error(argv, key, source, capsys, tmp_path):
    out_path = tmp_path / "out"
    if source == "file":
        option = "--" + key.replace("_", "-")
        i = argv.index(option)
        cfg = tmp_path / "count.conf"
        cfg.write_text(f"{key} = {argv[i + 1]}\n")
        argv = argv[:i] + argv[i + 2:] + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv, "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:") and key in err
    assert not out_path.exists()


TOLERANCE_OPTIONS = [(name, key) for name, (_, defaults, _) in SUBCOMMANDS.items()
                     for key in ("identity_rel", "inequality_slack") if key in defaults]


def test_tolerance_options_found():
    assert {name for name, _ in TOLERANCE_OPTIONS} == {
        "diffuse", "crbound", "qcr", "stam", "minimize"}


@pytest.mark.parametrize("name, key", TOLERANCE_OPTIONS,
                         ids=[f"{name}-{key}" for name, key in TOLERANCE_OPTIONS])
@pytest.mark.parametrize("value", ["0", "nan", "inf", "-0.5"])
def test_tolerance_not_finite_positive_is_usage_error(name, key, value, capsys, tmp_path):
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, name, "--" + key.replace("_", "-"), value,
                             "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:") and key in err
    assert not out_path.exists()


def test_diffuse_refuses_tolerance_before_solving(capsys, tmp_path, monkeypatch):
    def evolve(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr("qfisher.cli.evolve", evolve)
    code, _, err = run_cli(capsys, "diffuse", "--identity-rel", "0", "-o", str(tmp_path / "x"))
    assert code == EXIT_USAGE and "identity_rel" in err


@pytest.mark.parametrize("argv, key", [
    (["--beta", "nan"], "beta"),
    (["--m", "nan"], "m"),
    (["--init", "gaussian", "--sigma0", "0"], "sigma0"),
    (["--sigma0", "-1"], "sigma0"),
    (["--sigma0", "nan"], "sigma0"),
    (["--t0", "nan"], "t0"),
    (["--grid-lo", "3", "--grid-hi", "-3"], "grid_lo"),
], ids=" ".join)
def test_diffuse_refuses_bad_inputs_before_solving(argv, key, capsys, tmp_path, monkeypatch):
    # each used to exit 3 from inside the numerics, or (sigma0 = -1) to run as sigma0 = 1
    def evolve(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr("qfisher.cli.evolve", evolve)
    out_path = tmp_path / "t.csv"
    code, out, err = run_cli(capsys, "diffuse", *argv, "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: {key} ")
    assert not out_path.exists()


@pytest.mark.parametrize("constraint", ["moment", "entropy-power"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-0.5"])
def test_minimize_target_not_finite_positive_is_usage_error(constraint, value, capsys,
                                                            tmp_path, monkeypatch):
    # inf and nan used to exit 3 from inside the numerics, and 0 too
    def min_fisher(*args, **kwargs):
        raise AssertionError("minimization started")

    monkeypatch.setattr("qfisher.cli.min_fisher_fixed_moment", min_fisher)
    monkeypatch.setattr("qfisher.cli.min_fisher_fixed_entropy", min_fisher)
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, "minimize", "--constraint", constraint, "--target", value,
                             "--seed", "7", "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error: target must be finite and > 0")
    assert not out_path.exists()


@pytest.mark.parametrize("name", ["qcr", "stam"])
@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_hoelder_exponent_nan_is_usage_error(name, key, capsys):
    code, out, err = run_cli(capsys, name, f"--{key}", "nan")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: {key} must be finite and exceed 1")


@pytest.mark.parametrize("count", ["4003", "7"])
def test_info_grid_count_must_be_4k_plus_1(count, capsys, monkeypatch):
    def grid_density(*args, **kwargs):
        raise AssertionError("density built")

    monkeypatch.setattr("qfisher.cli.grid_density", grid_density)
    code, out, err = run_cli(capsys, "info", "--grid-count", count)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:") and "grid_count" in err and "4k + 1" in err


@pytest.mark.parametrize("argv", [
    ["info", "--family", "gaussian", "--n", "2"],
    ["info", "--family", "uniform", "--n", "2"],
    ["stam", "--n", "2", "--perturbations", "3", "--seed", "1"],
    ["minimize", "--n", "2", "--seed", "1"],
    ["crbound", "--model", "escort-pair", "--n", "2"],
    ["crbound", "--model", "qgaussian-location", "--n", "3"],
], ids=" ".join)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_n_is_usage_error_where_computation_is_1d(argv, source, capsys, tmp_path):
    # these computations are 1-D whatever n says: refused, not run on the line
    out_path = tmp_path / "out"
    i = argv.index("--n")
    n = argv[i + 1]
    if source == "file":
        cfg = tmp_path / "n.conf"
        cfg.write_text(f"n = {n}\n")
        argv = argv[:i] + argv[i + 2:] + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv, "-o", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:") and f"n = {n}" in err and "1-D" in err
    assert not out_path.exists()


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


class TestUsageErrors:
    def test_missing_seed_for_mc(self, capsys):
        code, _, err = run_cli(capsys, "crbound", "--trials", "100")
        assert code == EXIT_USAGE and "seed" in err

    def test_hoelder_inconsistency(self, capsys):
        code, _, err = run_cli(capsys, "qcr", "--alpha", "2", "--beta", "3")
        assert code == EXIT_USAGE and "Hoelder" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_minimize_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "minimize", "--constraint", "moment",
                               "--target", "0.2")
        assert code == EXIT_USAGE and "seed" in err


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

    @pytest.mark.parametrize("t_end", ["nan", "1", "0.5"])
    def test_span_not_forward_exit_code(self, t_end, capsys, tmp_path):
        # t0 defaults to 1; nan used to write 201 rows of t = nan and exit 1
        out_path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "diffuse", "--t-end", t_end, "-o", str(out_path))
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("numerical failure: t_end")
        assert not out_path.exists()

    def test_nonintegrable_params_exit_code(self, capsys):
        # q < 1 needs alpha/(1-q) > n: violated at n = 2, q = 0.2, alpha = 1.5
        code, _, err = run_cli(capsys, "qcr", "--q", "0.2", "--alpha", "1.5", "--n", "2")
        assert code == EXIT_NUMERICAL
        assert "integrable" in err


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

    def test_requires_output(self, capsys):
        code, _, err = run_cli(capsys, "diffuse")
        assert code == EXIT_USAGE and "output" in err

    def test_refuses_n_other_than_1(self, capsys, tmp_path):
        # the grid is 1-D whatever n says: n = 2 used to run the 1-D problem
        out_path = tmp_path / "traj.csv"
        code, out, err = run_cli(capsys, "diffuse", "--n", "2", "--init", "gaussian",
                                 "--t0", "0", "--t-end", "0.1", "--grid-lo", "-10",
                                 "--grid-hi", "10", "--grid-count", "401",
                                 "-o", str(out_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and "n = 2" in err
        assert not out_path.exists()


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
        monkeypatch.setattr("qfisher.cli.mc_error_moment",
                            lambda model, est, theta, trials, seed: (mc, 0.1))
        code, out, _ = run_cli(capsys, "crbound", "--model", "gaussian-location",
                               "--trials", "100", "--seed", "4")
        d = json.loads(out)
        assert d["rhs"] == pytest.approx(1.0, abs=1e-6)
        assert code == exit_code and d["passed"] is True and d["mc_consistent"] is consistent

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
        "c14c13e1936bfcef661e16756468c2c84add4d66455893e1625f5fdbedd1e84c",
    "diffuse --m 2 --beta 2 --init barenblatt --t0 1 --t-end 2 -o traj.csv":
        ("4f03c96e76d69b00d0478171aae66f591967932fc17b16baef9e959a71bf523f",
         "10db85419d4db63efe40586541dd3dda3fed0a7fb1c6356d64a0d0d58b3aa1f1"),
    "crbound --model gaussian-location --n 3 --trials 100000 --seed 7":
        "e18a033c9ee3d5bb3c020f9ff75681784d982696366c2d8d465b30bc8a7cd2d9",
    "qcr --q 1.5 --alpha 2 --gamma 1":
        "1e4ba361ccafa667e485da16faf12fc63e4f783987fa6f9c5e5012be9b1142ba",
    "stam --q 2 --beta 2 --gamma 1 --perturbations 20 --seed 7":
        "48cb0ba769495177b105847a53577c8824fb3431906a3f35acdf8fa30d820f3a",
    "minimize --constraint moment --q 2 --alpha 2 --target 0.2 --seed 7":
        "ce5b8d90f08d7512c648b2e00b44e1c5fda25b2f9b648f76285c5edf7542dfc5",
    "crbound --model escort-pair --q 2 --alpha 2":
        "872de20c5addab7250bf7a24698eed23ca3635f52f2dd09bfd0aadc75088c270",
    "crbound --model qgaussian-location --q 1.5 --alpha 3":
        "9b5cffe354da049c6cdb2991058ad340276795d2b28754a3a8a3a0e8019b1244",
}
README_LINES = re.findall(r"^qfisher (.*)$",
                          (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.M)


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
