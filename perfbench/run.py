"""Time-to-verified-result benchmark for momentlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Closed loop: one process, one
client, one task at a time, as when someone runs a command and waits.
Each pass runs the workload's fixed task list in a fresh process, so the
program's caches start cold as in a user's CLI process; passes repeat until
``--seconds`` have been spent (at least MIN_PASSES).  Every output is
checked; the last line of stdout is one JSON object with the metrics.

Timings are host-speed corrected (see worker.py) and best-of-passes per
task: each task's latency (its call plus the check of its output) is the
fastest of its corrected runs, ``wall_s`` is their sum (the time to a fully
verified result for the whole list) and the task percentiles are taken
over the same values.  On a shared 2-core host, identical passes varied
by up to 1.6x, with slow phases of 5-60 s on both cores at once; raw
wall times of nine decoupling-fixtures runs spread by 0.30 (quartile
distance over median), corrected ones of ten runs by 0.04.  The raw
figures are printed alongside.

With ``--trace 1`` untraced and traced passes alternate instead
(TRACE_PAIRS of each); the per-layer metrics come from the traced ones and
the tracing overhead is the difference of the two sides' ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from boundaries import BOUNDARIES, PER_LAYER, count_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
TRACE_PAIRS = 2
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
DEADLINE_S = 170.0
END_TO_END = (
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # bytecode is cached once per checkout, as an installed package's would be
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.build = ROOT / ".bench_build"
        self.build.mkdir(exist_ok=True)
        self.refs = HERE / "refs" / f"{workload}.json"
        self.env = child_env()
        self.started = time.monotonic()

    def child(self, mode: str) -> dict:
        """One worker process; returns its JSON result."""
        workdir = tempfile.mkdtemp(prefix="pass-", dir=self.build)
        try:
            remaining = DEADLINE_S - (time.monotonic() - self.started)
            if remaining <= 0:
                raise RuntimeError("out of time before the pass started")
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
                 workdir, mode, str(self.refs)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            trace = Path(workdir) / "trace.json"
            if trace.exists():
                shutil.move(str(trace), self.build / f"trace-{self.workload}-seed{self.seed}.json")
            return result
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def tail_percentile(n_tasks: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND tasks beyond it."""
    return max(50, math.floor(100 * (n_tasks - TAIL_BEYOND) / n_tasks))


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def best_latencies(passes, key: str = "latency_s") -> list[float]:
    """Each task's fastest run over the passes, in task-list order."""
    return [min(runs) for runs in zip(*([t[key] for t in p["tasks"]] for p in passes))]


def failures(passes) -> list[str]:
    return [f"{t['id']}: {t['error']}" for p in passes for t in p["tasks"] if t["error"]]


def measure(runner: Runner, seconds: float):
    passes = []
    t0 = time.monotonic()
    last = 0.0
    while len(passes) < MIN_PASSES or (time.monotonic() - t0) + last <= seconds:
        start = time.monotonic()
        passes.append(runner.child("run"))
        last = time.monotonic() - start
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    best = best_latencies(passes)
    pct = tail_percentile(len(best))
    metrics = {
        "wall_s": sum(best),
        "task_p50_s": statistics.median(best),
        "task_tail_s": nearest_rank(best, pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    units = dict(END_TO_END)
    notes = [
        f"passes={len(passes)} tasks={len(best)} tail=p{pct}",
        "pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in passes),
        "raw pass wall_s: " + " ".join(f"{p['raw_wall_s']:.4f}" for p in passes),
        f"raw wall_s (sum of raw task minima): {sum(best_latencies(passes, 'raw_s')):.4f}",
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups),
        f"checked_against_refs={all(p['checked_against_refs'] for p in passes)}",
    ]
    return passes, {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}, notes


def measure_traced(runner: Runner):
    # untraced and traced passes alternate, so both sides see the same host
    # phases; counts repeat exactly, and times take the faster traced pass
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(runner.child("run"))
        traced.append(runner.child("trace"))
    layers = {key: min(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
    untraced_wall, traced_wall = sum(best_latencies(plain)), sum(best_latencies(traced))
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    exercised = {count_key(b) for b in BOUNDARIES if runner.workload in b.workloads}
    idle = sorted({count_key(b) for b in BOUNDARIES
                   if layers.get(count_key(b), 0) == 0 and count_key(b) not in exercised})
    notes = [
        f"untraced wall_s={untraced_wall:.4f} traced wall_s={traced_wall:.4f} "
        f"overhead_s={layers['trace.overhead_s']:.4f} ({TRACE_PAIRS} passes each, alternating)",
        "qadic is counted, not timed: its time is in the self time of its callers",
    ]
    if idle:
        notes.append("not exercised on this workload (reported as 0): " + ", ".join(idle))
    for b in BOUNDARIES:
        if b.note:
            notes.append(f"{b.name}: {b.note}")
    metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momentlab" / "__init__.py").is_file():
        print(f"no momentlab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics, notes = measure_traced(runner)
        else:
            passes, metrics, notes = measure(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    failed = failures(passes)
    attempted = sum(len(p["tasks"]) for p in passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  failed_frac {len(failed) / attempted:.4f} ({len(failed)} of {attempted} task runs)")
    for line in failed[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
