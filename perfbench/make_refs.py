"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/make_refs.py [--seeds 0-15] [--workload NAME ...]

Runs one untraced pass per workload and seed and stores, per task, the
digest of its output (workloads.digest) in perfbench/refs/<workload>.json.
Only passes whose every verdict holds are recorded.  Regenerate after any
change to a task list; a run on a seed without a reference checks verdicts
only.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, Runner
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args()
    (HERE / "refs").mkdir(exist_ok=True)
    for workload in args.workload:
        refs = {}
        for seed in args.seeds:
            runner = Runner(workload, seed)
            runner.refs = HERE / "refs" / "none.json"  # record, do not compare
            result = runner.child("run")
            bad = [t for t in result["tasks"] if t["error"]]
            if bad:
                print(f"{workload} seed {seed}: {bad[0]['id']} failed: {bad[0]['error']}", file=sys.stderr)
                return 1
            refs[str(seed)] = {task: [d[0][:16], d[1]] for task, d in result["digests"].items()}
            print(f"{workload} seed {seed}: {len(result['digests'])} outputs", flush=True)
        path = HERE / "refs" / f"{workload}.json"
        path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
