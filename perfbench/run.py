"""qfisher benchmark: three workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload {trajectories,certify,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports qfisher from
``src/`` and refuses to run without it.

Load model: one process, one client, closed loop.  Passes over the
workload's inputs run back to back for ``--seconds`` (a pass that would
overrun is not started; at least one runs), with BLAS/OpenMP pinned to one
thread and nothing running concurrently.  The harness and every process it
starts are pinned to one CPU, the highest it may use: the host's CPUs run at
different speeds at times, and the calibration samples the harness takes
around a set-up must run on the CPU the set-up ran on.

Workloads (the seed makes the inputs; the program only sees the inputs):

- trajectories: the four acceptance PDE runs (heat N=4001, porous medium
  N=251 and N=501, p-Laplacian N=1001), each through evolve, the de Bruijn
  check, the Barenblatt L1 distance and the monotonicity check.  The seed
  orders the runs.
- certify: the configurations of acceptance criteria 4-8 (equality points
  at 8001 nodes, perturbation batches at 4001 nodes, minimum-Fisher
  certifications, Cramer-Rao bounds with 1e5 Monte Carlo trials), every
  random batch seeded from the seed.
- cli: every subcommand at its README/default configuration, each as a
  fresh process that behaves like ``python -m qfisher.cli`` (see
  ``cli_workload.py``); the stochastic ones get the seed.

Every end-to-end time is at the host's nominal speed: the host's speed
swings by up to about 1.8x over minutes, so ``calibrate.py`` times a fixed
numpy reference kernel every 0.1 s of an untraced pass (in the harness, or
in each command's process on cli) and around each set-up, and scales each
item's time by the kernel's nominal time over its mean time during the
item.  The unscaled times are on the detail line.  Traced passes take no
samples during the work, so no span holds one.

With ``--trace 0`` the last line reports the end-to-end metrics:

- setup_s: median of several set-ups.  In-process workloads: interpreter
  start until the inputs are built (a child process).  cli: a bare
  ``import qfisher.cli`` process.
- wall_s: median time of one pass (the sum of its items).
- slowest_item_s: median over passes of the slowest item (one PDE run, one
  certify section, one command; on cli this is ``reproduce``).
- peak_rss_mb: peak resident set of the process doing the work (the
  harness; on cli the largest command process).
- worst_rel_err: worst relative error against an oracle among the
  workload's outputs, so a speed-up bought with a coarser grid or step
  shows as a regression.

With ``--trace 1`` passes alternate untraced and traced, and the last line
reports the per-layer metrics of ``layers.py`` (medians over traced passes)
and ``trace.overhead_s``, the traced minus the untraced median pass time.
Per-layer times are raw wall times.

Every pass is checked against the tolerances the acceptance criteria pin;
``attempted``/``failed`` count those checks (``failed/attempted`` is the
fail ratio).  The environment record and the failed checks are printed on
the line before the result and written to ``.perfbench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import ItemTimes, sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("trajectories", "certify", "cli")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: acceptance.SUITE_SEED, the default seed of every randomized batch
SUITE_SEED = 20260811

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_item_s": "s",
                    "peak_rss_mb": "MB", "worst_rel_err": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process (and so its children) to its highest allowed CPU;
    returns (CPUs allowed before, the CPU kept)."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(nproc: int, pinned: int) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": nproc, "pinned_cpu": pinned, "cpu_model": model,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git reports "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# workloads behind one interface: setup() builds the inputs, run(traced)
# makes one pass and returns (outputs, item times, trace or None)
# ---------------------------------------------------------------------------


class InProcess:
    def __init__(self, name: str, seed: int):
        import workloads

        self.name, self.seed = name, seed
        self._inputs = getattr(workloads, f"{name}_inputs")
        self._pass = getattr(workloads, f"{name}_pass")
        self.checks = getattr(workloads, f"{name}_checks")
        self.worst_err = getattr(workloads, f"{name}_worst_err")

    def setup(self):
        self.inputs = self._inputs(self.seed)

    def run(self, traced: bool):
        if not traced:
            with sampler().running():
                return (*self._pass(self.inputs), None)
        from qfisher import qgaussian
        from tracer import Tracer

        before = qgaussian.normalization.cache_info()
        tracer = Tracer()
        with tracer.installed():
            out, items = self._pass(self.inputs)
        after = qgaussian.normalization.cache_info()
        trace = tracer.to_dict()
        trace.update(cache_hits=after.hits - before.hits,
                     cache_misses=after.misses - before.misses)
        return out, items, trace

    def setup_once(self) -> float:
        """Interpreter start until a child process has built the inputs."""
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", self.name, "--seed", str(self.seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        return elapsed

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class Cli:
    def __init__(self, seed: int):
        import cli_workload

        self.name, self.seed, self.mod = "cli", seed, cli_workload
        self.checks = cli_workload.cli_checks
        self.worst_err = cli_workload.cli_worst_err

    def setup(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))

    def run(self, traced: bool):
        out, items, records = self.mod.cli_pass(self.seed, child_env(), self.work_dir, traced)
        if not traced:
            return out, items, None
        from tracer import merge

        trace = merge(records)
        trace.update(cache_hits=sum(r["cache_hits"] for r in records),
                     cache_misses=sum(r["cache_misses"] for r in records),
                     import_s=[r["import_s"] for r in records],
                     run_s={r["item"]: r["run_s"] for r in records})
        return out, items, trace

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qfisher.cli"], env=child_env(), check=True)
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------


def measure(wl, seconds: float, trace: bool):
    """Passes back to back until the next would overrun ``seconds``; with
    tracing, each round is one untraced and one traced pass.  Returns, per
    mode, [(scaled pass time, outputs, item times, trace)]."""
    modes = (False, True) if trace else (False,)
    passes = {m: [] for m in modes}
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in modes:
            out, items, tr = wl.run(traced)
            passes[traced].append((sum(items.scaled.values()), out, items, tr))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return passes


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=SUITE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfisher" / "__init__.py").is_file():
        print(f"perfbench: no qfisher sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = Cli(args.seed) if args.workload == "cli" else InProcess(args.workload, args.seed)
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    import layers

    nproc, pinned = pin_to_one_cpu()
    # setup_s is an end-to-end metric: traced runs skip the set-up probes
    setups = ItemTimes()
    for i in range(0 if args.trace else SETUP_REPEATS):
        setups.record(f"setup-{i}", wl.setup_once)
    wl.setup()
    try:
        passes = measure(wl, args.seconds, bool(args.trace))
    finally:
        wl.close()

    checks = []
    for mode_passes in passes.values():
        for _wall, out, _items, _trace in mode_passes:
            checks += wl.checks(out)
    plain = passes[False]
    if args.trace:
        traced = passes[True]
        checks.append(("traced and untraced passes give identical outputs",
                       all(p[1] == plain[0][1] for p in plain + traced)))
        per_pass = []
        for _wall, _out, _items, tr in traced:
            checks += layers.separation_checks(args.workload, tr)
            per_pass.append(layers.pass_metrics(tr))
        overhead = (statistics.median(p[0] for p in traced)
                    - statistics.median(p[0] for p in plain))
        values = layers.median_metrics(per_pass, overhead)
        units = layers.PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups.scaled.values()),
            "wall_s": statistics.median(p[0] for p in plain),
            "slowest_item_s": statistics.median(max(p[2].scaled.values()) for p in plain),
            "peak_rss_mb": wl.peak_rss_mb(),
            "worst_rel_err": max(wl.worst_err(p[1]) for p in plain),
        }
        units = END_TO_END_UNITS

    failed = [name for name, ok in checks if not ok]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(nproc, pinned),
        "passes": {("traced" if m else "untraced"): len(p) for m, p in passes.items()},
        "pass_s": [p[0] for p in plain], "pass_wall_s": [sum(p[2].values()) for p in plain],
        "setup_s": list(setups.scaled.values()), "setup_wall_s": list(setups.values()),
        "fail_ratio": len(failed) / len(checks), "failed_checks": failed,
    }
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
