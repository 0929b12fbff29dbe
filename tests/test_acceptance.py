"""Acceptance suite: every criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; `qfisher reproduce` drives the same suite from the CLI.
"""

import hashlib
from pathlib import Path

import pytest

from qfisher.acceptance import AcceptanceSuite, render_summary


@pytest.fixture(scope="module")
def results():
    suite = AcceptanceSuite()
    res = suite.run_all()
    print()
    print(render_summary(res), end="")
    return {r.index: r for r in res}


def _check(res):
    line = "PASS" if res.passed else "FAIL"
    print(f"criterion {res.index} [{line}] {res.name}")
    assert res.passed, f"criterion {res.index} failed: {res.details}"


def test_criterion_1_classical_debruijn(results):
    _check(results[1])
    assert results[1].details["worst_rel_err_vs_1/(1+2t)"] < 1e-2


def test_criterion_2_extended_debruijn(results):
    _check(results[2])
    assert results[2].details["mid_rel_err"] < 1e-2
    assert results[2].details["refinement_ratio"] < 0.5


def test_criterion_3_barenblatt_self_similarity(results):
    _check(results[3])
    assert results[3].details["l1_m2_beta2"] < 1e-2
    assert results[3].details["l1_m1_beta3"] < 1e-2


def test_criterion_4_classical_cramer_rao(results):
    _check(results[4])
    d = results[4].details
    assert abs(d["lhs"] - 1.0) < 1e-6 and abs(d["rhs"] - 1.0) < 1e-6
    assert abs(d["mc"] - d["rhs"]) < 3 * d["mc_se"]


def test_criterion_5_quadratic_bound(results):
    _check(results[5])
    d = results[5].details
    assert abs(d["lhs"] - 1.0 / 3.0) < 1e-6 and abs(d["rhs"] - 1.0 / 3.0) < 1e-6
    assert d["sweep_max"] <= d["optimum"] + 1e-10


def test_criterion_6_qcr_equality(results):
    _check(results[6])
    d = results[6].details
    for key in ("product_q2.0_a2.0", "product_q1.5_a2.0", "product_q2.0_a3.0"):
        assert abs(d[key] - 1.0) < 1e-4
    assert d["all_above_n"] and d["min_gap_amplitude"] == 0.01


def test_criterion_7_stam(results):
    _check(results[7])
    d = results[7].details
    assert abs(d["ratio_q1.0"] - 1.0) < 1e-4
    assert abs(d["ratio_q2.0"] - 1.0) < 1e-4
    assert d["min_perturbed_ratio_q1.0"] > 1.0
    assert d["min_perturbed_ratio_q2.0"] > 1.0


def test_criterion_8_minimum_fisher(results):
    _check(results[8])
    for key, val in results[8].details.items():
        if key.endswith("exponent"):
            assert 1.7 <= val <= 2.3, key


def test_criterion_9_monotonicity(results):
    _check(results[9])


def test_criterion_10_determinism(results):
    _check(results[10])
    assert results[10].details["identical"]


def test_summary_matches_pinned_bytes(results):
    # the benchmark's pinned sha256 of the `qfisher reproduce` body
    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "reproduce_body.sha256"
    body = render_summary([results[i] for i in sorted(results)])
    assert hashlib.sha256(body.encode()).hexdigest() == pinned.read_text().split()[0]
