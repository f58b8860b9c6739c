"""One pass of a workload in a fresh process: set up, run every task, check.

Run by run.py, never by hand:

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR {run,trace,setup} [REFS]

The process starts with the program's caches cold, as a user's CLI process
does.  Set-up (imports, input generation, the first numpy FFT) is timed
separately from the tasks.  The result is printed as one JSON line.

Every interval is also reported corrected for host speed: a fixed
pure-Python probe is timed before and after it, and every SAMPLE_S while a
task runs (from a SIGALRM handler, whose time is taken off the task), and
the interval is scaled by PROBE_REF_S over the mean of those probe times.  On a shared host the
same pass was seen to run up to 1.6 times slower for phases of 5-60 s, on
both cores at once; the probe slows with it, so corrected times track the
cost of the program rather than the phase the run fell in.
"""

from __future__ import annotations

import signal
import time

# The probe's time on a quiet host (2-core x86-64 VM at 2.1 GHz, Python
# 3.11); it only sets the scale of corrected times.
PROBE_REF_S = 1.0e-3
SAMPLE_S = 0.05


def probe_once() -> float:
    """One timing of a fixed dict-and-integer loop."""
    t = time.perf_counter()
    acc = {}
    for i in range(8000):
        acc[i & 255] = acc.get(i & 255, 0) + (i * 7) // 3
    return time.perf_counter() - t


def probe() -> float:
    return sorted(probe_once() for _ in range(3))[1]


def corrected(seconds: float, probes) -> float:
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


class Sampler:
    """Probe timings taken every SAMPLE_S by SIGALRM between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(probe_once())
        self.spent += time.perf_counter() - t

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


_P0 = probe()
_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    workload, seed, workdir, mode = argv[0], int(argv[1]), argv[2], argv[3]
    refs_path = argv[4] if len(argv) > 4 else None
    os.chdir(workdir)  # relative fixture paths keep the reports free of run-specific paths

    import numpy as np

    import momentlab.cli  # noqa: F401
    import momentlab.verify  # noqa: F401
    from workloads import build, digest, digest_matches, run_task, verdict_failures

    tasks, _ = build(workload, seed, ".")
    np.fft.fftn(np.ones((8, 8), dtype=np.complex128))
    setup_raw = time.perf_counter() - _T0
    speed = probe()
    setup_s = corrected(setup_raw, [_P0, speed])
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = None
    if refs_path and os.path.exists(refs_path):
        with open(refs_path, encoding="utf-8") as fh:
            refs = json.load(fh).get(str(seed))

    tracer = None
    if mode == "trace":
        import boundaries
        from tracer import Tracer

        tracer = Tracer()
        boundaries.install(tracer)

    results = []
    digests = {}
    sampler = Sampler()
    start = time.perf_counter()
    try:
        for task in tasks:
            sampler.start()
            t0 = time.perf_counter()
            error = None
            try:
                output = run_task(task, "out.json")
            except Exception as exc:  # a failed task is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            if output is not None:
                bad = verdict_failures(output)
                if bad:
                    error = "verdict false: " + ", ".join(bad)
                digests[task["id"]] = got = digest(output)
                if error is None and refs is not None:
                    ref = refs.get(task["id"])
                    if ref is None or not digest_matches(got, ref):
                        error = "output differs from the stored reference"
            # a task's latency runs until its output is verified
            raw = time.perf_counter() - t0 - sampler.spent
            sampler.stop()
            before, speed = speed, probe()
            results.append({"id": task["id"], "latency_s": corrected(raw, [before, *sampler.samples, speed]),
                            "raw_s": raw, "error": error})
        wall_s = time.perf_counter() - start
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()

    doc = {
        "setup_s": setup_s,
        "wall_s": sum(t["latency_s"] for t in results),
        "raw_wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": results,
        "checked_against_refs": refs is not None,
        "digests": digests,
    }
    if tracer is not None:
        tracer.write("trace.json")
        doc["layers"] = boundaries.layer_metrics(tracer)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
