"""Tests of the benchmark itself: tracer, gates, seeds, contract.

    python3 -m pytest perfbench -q

About a minute: it runs one traced and one untraced pass of each in-process
workload and two certify passes on other seeds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import cli_workload  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import qfisher.acceptance  # noqa: E402
from qfisher import core, estimation, info_measures, perturb, qgaussian  # noqa: E402


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "qfisher" or name.startswith("qfisher.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_wraps_every_binding_site_and_restores_them():
    before = _bindings()
    init_before = core.GridDensity.__init__
    tracer = Tracer()
    with tracer.installed():
        # one wrapper, installed under every name that bound the original
        assert estimation.qpdf is perturb.pdf is qgaussian.pdf is qfisher.pdf
        assert estimation.qpdf is not before[("qfisher.qgaussian", "pdf")]
        assert info_measures.integrate is core.integrate is qfisher.integrate
        assert core.GridDensity.__init__ is not init_before
        g = qgaussian.grid_density(qgaussian.QGaussianParams(2.0, 2.0, 1.0, 1), 401)
        info_measures.i_fisher(g, 2.0, 2.0)
    assert _bindings() == before
    assert core.GridDensity.__init__ is init_before

    s = tracer.spans
    # grid_density -> normalize -> integrate x2; i_fisher -> phi_fisher and
    # m_q -> one integrate each
    assert s["core.integrate"][0] == 4
    assert s["core.GridDensity.init"][0] == 2
    i, phi, mq = s["info_measures.i_fisher"], s["info_measures.phi_fisher"], s["info_measures.m_q"]
    assert i[0] == phi[0] == mq[0] == 1
    assert abs(i[2] - (i[1] - phi[1] - mq[1])) < 1e-9   # self = duration - children
    assert tracer.keyed["info_measures.phi_fisher|n401"][0] == 1


def test_traced_and_untraced_passes_agree():
    for name in ("trajectories", "certify"):
        wl = run.InProcess(name, 20260811)
        wl.setup()
        plain, _, _ = wl.run(traced=False)
        traced, _, trace = wl.run(traced=True)
        assert traced == plain, name
        assert [ok for _, ok in wl.checks(traced)] == [ok for _, ok in wl.checks(plain)]
        assert all(ok for _, ok in layers.separation_checks(name, trace)), name


def test_traced_and_sampled_cli_match_plain_cli(tmp_path):
    env = run.child_env()
    argv = ["qcr", "--q", "1.5", "--alpha", "2", "--gamma", "1"]
    plain = subprocess.run([sys.executable, "-m", "qfisher.cli", *argv],
                           env=env, capture_output=True, text=True)
    records = {}
    for runner in ("traced_cli.py", "sampled_cli.py"):
        records[runner] = tmp_path / f"{runner}.json"
        proc = subprocess.run([sys.executable, str(HERE / runner), str(records[runner]), *argv],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (plain.returncode, plain.stdout) == (0, plain.stdout)
    record = json.loads(records["traced_cli.py"].read_text())
    assert record["spans"]["estimation.qcr_product"][0] == 1
    assert record["cache_misses"] > 0   # a fresh process starts with a cold cache
    record = json.loads(records["sampled_cli.py"].read_text())
    assert record["samples"] and 0.0 < record["spent"]


def test_wrong_references_fail_the_gates():
    # trajectories: the analytic profile taken at the wrong time
    runs = tuple(dataclasses.replace(r, exact_shift=r.exact_shift + 0.1)
                 for r in workloads.TRAJECTORY_RUNS if r.name == "pme-n251")
    out, _ = workloads.trajectories_pass(workloads.trajectories_inputs(0, runs))
    assert not all(ok for _, ok in workloads.trajectories_checks(out))

    # certify: a closed-form Fisher reference off by 1 %
    out, _ = workloads.certify_pass(workloads.certify_inputs(20260811))
    assert all(ok for _, ok in workloads.certify_checks(out))
    key = "min_fisher_moment_q2.0_a2.0_i_grid_rel_err"
    out[key] = abs(1.0 - 1.0 / 1.01) + out[key]
    assert [name for name, ok in workloads.certify_checks(out) if not ok] == [
        f"{key} equality within 1e-4"]

    # cli: a wrong pinned hash of the reproduce summary
    out = {"exit": {"qcr": 0}, "stdout": {"qcr": ""}, "reproduce_body": "criterion\n"}
    failed = [n for n, ok in cli_workload.cli_checks(out, expected_sha="0" * 64) if not ok]
    assert failed == ["reproduce summary body matches the pinned sha256"]


def test_certify_gates_pass_on_other_seeds():
    for seed in (1, 2):
        out, _ = workloads.certify_pass(workloads.certify_inputs(seed))
        assert [n for n, ok in workloads.certify_checks(out) if not ok] == [], seed


def test_item_times_are_scaled_by_the_samples_taken_during_them():
    s = calibrate.sampler()
    items = calibrate.ItemTimes()
    first = len(s.samples)
    with s.running(), items.timed("busy"):
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            pass
    taken = s.samples[first:]
    assert len(taken) >= 3
    assert items["busy"] < 0.5   # the time spent sampling is not the item's
    assert items.scaled["busy"] == calibrate.scaled(items["busy"], taken)
    items.record("outside", lambda: 1.0)
    assert len(s.samples) == first + len(taken) + 2 * calibrate.EDGE_SAMPLES
    assert calibrate.scaled(3.0, [calibrate.NOMINAL_S / 2.0] * 2) == 6.0


def test_calibration_kernel_runs_no_program_code():
    # a change to qfisher must not move the reference the times are scaled by
    code = ("import sys, calibrate; calibrate.sampler().sample(); "
            "sys.exit(any(m.split('.')[0] == 'qfisher' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.SUITE_SEED == qfisher.acceptance.SUITE_SEED


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
