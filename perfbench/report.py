"""Every metric of every workload, in one command.

    python3 perfbench/report.py [--seeds 1-10] [--workload NAME ...] [--baseline PATH]

For each workload: one untraced run per seed, exactly as the benchmark
command runs (``run.py --seconds <run_seconds>``), then one traced run on
the first seed.  Prints each end-to-end metric by name and unit with its
median, quartiles and spread (quartile distance over median) across seeds,
the failed fraction, every per-layer metric and the tracing overhead.
With ``--baseline`` it also writes all of it, the workloads' input
properties and the Python, numpy and core counts, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

from make_refs import seed_range
from run import HERE, ROOT, child_env
from workloads import WORKLOADS, build


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "notes": [l.strip() for l in lines[1:] if l.startswith("  ")]}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def input_properties(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        return build(workload, seed, tmp)[1]


def versions() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", "import numpy, sys; print(sys.version.split()[0], numpy.__version__)"],
        env=child_env(), capture_output=True, text=True, check=True,
    ).stdout.split()
    return {"python": out[0], "numpy": out[1], "nproc": os.cpu_count(), "machine": platform.machine()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--baseline", help="write the numbers to this JSON file")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"environment": versions(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    print(f"environment: {doc['environment']}  run_seconds={seconds}  seeds={args.seeds}")
    for workload in args.workload:
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        e2e = {}
        print(f"\n{workload}: {len(runs)} runs, failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
        print(f"  {runs[0]['notes'][0]}")
        for name, unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            e2e[name] = summary([r["result"]["metrics"][name]["value"] for r in runs])
            s = e2e[name]
            print(f"  {name:<14} median {s['median']:>11.5g} {unit:<3} q1 {s['q1']:>11.5g} q3 {s['q3']:>11.5g}"
                  f"  spread {s['spread']:.3f} (bound {bounds[name]})")
        traced = bench(workload, args.seeds[0], seconds, 1)
        print(f"  traced run, seed {args.seeds[0]}:")
        for line in traced["notes"]:
            print(f"    {line}")
        doc["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": e2e,
            "notes": runs[0]["notes"][:1],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "trace_notes": traced["notes"][:4],
            "input_properties": input_properties(workload, args.seeds[0]),
        }
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
