"""The ``cli`` workload: each subcommand as a fresh process, so every
command pays interpreter start, the scipy import and a cold normalization
cache, as it does for a user.  Untraced commands run through
``sampled_cli.py`` and traced ones through ``traced_cli.py``; both behave
like ``python -m qfisher.cli``.

This module does not import qfisher: the harness only starts processes and
reads what they write.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from calibrate import ItemTimes

HERE = Path(__file__).resolve().parent
#: sha256 of the ``reproduce`` summary without its ``# config:`` header
PINNED_SHA_FILE = HERE / "reproduce_body.sha256"
#: no single command may take longer (the whole run must end within 180 s)
COMMAND_TIMEOUT_S = 150


def commands(seed: int, work_dir: Path) -> list[tuple[str, list[str]]]:
    """(item name, argv) for each subcommand at its README/default config."""
    s = str(seed)
    return [
        ("info", ["info", "--family", "qgaussian", "--q", "2", "--alpha", "2", "--gamma", "1"]),
        ("qcr", ["qcr", "--q", "1.5", "--alpha", "2", "--gamma", "1"]),
        ("crbound", ["crbound", "--model", "gaussian-location", "--n", "3",
                     "--trials", "100000", "--seed", s]),
        ("stam", ["stam", "--q", "2", "--beta", "2", "--gamma", "1",
                  "--perturbations", "20", "--seed", s]),
        ("minimize-moment", ["minimize", "--constraint", "moment", "--q", "2", "--alpha", "2",
                             "--target", "0.2", "--seed", s]),
        ("minimize-entropy", ["minimize", "--constraint", "entropy-power", "--q", "2",
                              "--alpha", "2", "--target", "0.2", "--seed", s]),
        ("diffuse", ["diffuse", "-o", str(work_dir / "trajectory.csv")]),
        ("reproduce", ["reproduce", "-o", str(work_dir / "summary.txt")]),
    ]


def item_names() -> list[str]:
    return [name for name, _ in commands(0, Path("."))]


def cli_pass(seed: int, env: dict, work_dir: Path, traced: bool = False):
    """Run every command once, in sequence.  Returns (outputs, item times,
    traces): one trace per process on traced passes, None on untraced
    ones, whose item times are scaled by the samples their process took."""
    out = {"exit": {}, "stdout": {}}
    items = ItemTimes()
    traces = []
    summary = work_dir / "summary.txt"
    summary.unlink(missing_ok=True)
    for name, argv in commands(seed, work_dir):
        runner = "traced_cli.py" if traced else "sampled_cli.py"
        record_path = work_dir / f"{runner[:-3]}-{name}.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / runner), str(record_path), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - t0
        out["exit"][name] = proc.returncode
        out["stdout"][name] = proc.stdout
        if proc.returncode != 0:
            sys.stderr.write(f"cli {name} exited {proc.returncode}: {proc.stderr[-2000:]}\n")
        if traced:
            record = json.loads(record_path.read_text())
            record["item"] = name
            traces.append(record)
            items.add(name, wall, [])
        else:
            record = json.loads(record_path.read_text()) if record_path.exists() else {}
            items.add(name, wall - record.get("spent", 0.0), record.get("samples", []))
    out["reproduce_body"] = summary_body(summary.read_text()) if summary.exists() else ""
    return out, items, (traces if traced else None)


def summary_body(text: str) -> str:
    """The summary without its ``# config:`` header line(s)."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# config:"))


def pinned_sha() -> str:
    return PINNED_SHA_FILE.read_text().split()[0]


def cli_checks(out: dict, expected_sha: str | None = None) -> list[tuple[str, bool]]:
    expected_sha = expected_sha or pinned_sha()
    checks = [(f"{name}: exit code 0", code == 0) for name, code in out["exit"].items()]
    digest = hashlib.sha256(out["reproduce_body"].encode()).hexdigest()
    checks.append(("reproduce summary body matches the pinned sha256", digest == expected_sha))
    return checks


def _summary_details(body: str) -> dict:
    """criterion index -> {key: value text} parsed from the summary lines."""
    details = {}
    for line in body.splitlines():
        if not line.startswith("criterion"):
            continue
        head, _, tail = line.partition(": ")
        index = int(head.split()[1])
        details[index] = dict(tok.split("=", 1) for tok in tail.split() if "=" in tok)
    return details


def cli_worst_err(out: dict) -> float:
    """Worst relative error against an oracle among the values the commands
    print: de Bruijn and Barenblatt errors, equality-point ratios, and the
    Cramer-Rao equality."""
    errs = []
    d = _summary_details(out["reproduce_body"])
    if d:
        errs.append(float(d[1]["worst_rel_err_vs_1/(1+2t)"]))
        errs += [float(d[2]["mid_rel_err"]), float(d[2]["mid_rel_err_refined"])]
        errs += [float(v) for k, v in d[3].items() if k.startswith("l1_")]
        errs += [abs(float(v) - 1.0) for k, v in d[6].items() if k.startswith("product_")]
        errs += [abs(float(v) - 1.0) for k, v in d[7].items() if k.startswith("ratio_")]
    reports = {name: json.loads(text) for name, text in out["stdout"].items()
               if text.startswith("{")}
    if "qcr" in reports:
        errs.append(abs(reports["qcr"]["product"] - reports["qcr"]["dim"]))
    if "stam" in reports:
        errs.append(abs(reports["stam"]["ratio"] - 1.0))
    if "crbound" in reports:
        errs.append(abs(reports["crbound"]["lhs"] - reports["crbound"]["rhs"])
                    / reports["crbound"]["rhs"])
    if "diffuse" in reports:
        errs.append(reports["diffuse"]["debruijn_max_rel_err"])
    return max(errs) if errs else float("nan")
