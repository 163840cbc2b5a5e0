"""One generation of one workload, in a fresh process.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/child.py '<json job>'

The job names the workload, the population seed, whether to trace, a
scratch directory, the CPU to run on, and the ``time.monotonic()``
reading taken just before the parent spawned this process
(``CLOCK_MONOTONIC`` is system-wide, so the difference to a reading here
is the set-up time: interpreter start, imports, spec build, generator
construction).  The result is one JSON object on the last line of
standard output.

A fresh process per generation keeps ``ru_maxrss`` an honest per-run
high-water mark, and keeps a traced generation from sharing state with
an untraced one.

Right before and right after the timed region the generation times a
fixed reference loop (``host_ref_s``).  The host this benchmark was
built on slows a CPU-bound process by up to 1.7x in states lasting
seconds to minutes, per virtual CPU.  The process pins itself to the
job's CPU before anything else runs, so the reference loop and the
timed region share one CPU and see the same state; ``run.py`` scales
the end-to-end figures by the loop's time.
"""

import json
import os
import resource
import sys
import time


def reference_loop_s() -> float:
    """CPU seconds of a fixed pure-Python + dict + numpy loop (~0.25 s)."""
    import numpy as np

    started = time.process_time()
    for _ in range(8):
        acc = 0
        for i in range(150_000):
            acc = (acc + i * i) % 1_000_003
        counts: dict = {}
        for i in range(60_000):
            counts[i % 1009] = counts.get(i % 1009, 0) + i
        values = np.random.default_rng(0).random(1 << 16)
        for _ in range(6):
            np.sort(values)
            np.cumsum(values)
    return time.process_time() - started


def run_job(job: dict) -> dict:
    """Set up, time, optionally trace, then check one generation."""
    from perfbench.tracer import ROOT, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    ctx = workload.setup(job["population_seed"], job["workdir"])
    setup_s = time.monotonic() - job["spawned"]

    ref_before = reference_loop_s()
    tracer = None
    if job["traced"]:
        tracer = Tracer()
        tracer.install()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.start()
        out = workload.generate(ctx)
        cpu1, wall1 = time.process_time(), time.perf_counter()
        workload.replay(ctx, out)
        if tracer is not None:
            tracer.stop()
        cpu2 = time.process_time()
    finally:
        if tracer is not None:
            tracer.remove()
    host_ref_s = (ref_before + reference_loop_s()) / 2
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.measure(ctx, out)

    checks = list(workload.checks(ctx, out, job["reference"]))
    result = {
        "ops": out.ops,
        "cpu_s": cpu1 - cpu0,
        "wall_s": wall1 - wall0,
        "region_cpu_s": cpu2 - cpu0,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "host_ref_s": host_ref_s,
        "facts": out.facts,
    }
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["unattributed_s"] = tracer.self_s.get(ROOT, 0.0)
        result["calls"] = dict(tracer.calls)
        result["traced_s"] = tracer.total_s
        # Self times partition the traced region: they add up to the
        # tracer's own clock span, which in turn matches the region's
        # CPU time read outside the tracer (up to the clock reads made
        # between the two pairs of readings).  This is the tracer's
        # invariant, not an output check: a breach fails the run.
        summed = sum(tracer.self_s.values())
        if (abs(summed - tracer.total_s) > 1e-6
                or abs(tracer.total_s - result["region_cpu_s"])
                > 1e-3 + 0.01 * result["region_cpu_s"]):
            raise RuntimeError(
                f"trace self times {summed:.6f} s, traced span "
                f"{tracer.total_s:.6f} s, region CPU "
                f"{result['region_cpu_s']:.6f} s do not agree")
    result["checks"] = [[name, bool(ok)] for name, ok in checks]
    return result


def main(argv) -> int:
    job = json.loads(argv[1])
    os.sched_setaffinity(0, {job["cpu"]})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    print(json.dumps(run_job(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
