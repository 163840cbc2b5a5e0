"""Repository benchmark: three single-process workloads, outside-in tracing.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload op-heavy --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted``/``failed`` count output checks.  The line before it
stamps the host (``benchmarks/_env.py``'s ``bench_env()``, load average,
the mean reference-loop time), gives the raw end-to-end figures and the
host slowdown they were scaled by, and lists every generation (its CPU,
and whether it was checked against pinned digests).

A run is ``K`` generations of the workload, each in a fresh process
(``perfbench/child.py``) pinned to one CPU.  ``K`` follows from
``--seconds`` alone, so two commits measured with the same settings do
identical work.
Generation ``k`` uses population seed ``population_seed(seed, k)``:
seed heterogeneity (user mix, session lengths) is averaged over ``K``
populations instead of resting on one.  The traced run makes ``K // 2``
pairs of one untraced and one traced generation of the same population;
the pair gives ``trace.overhead_pct``.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

# Wall seconds one generation takes at the reference commit on a 2-core
# x86 VM (Xeon, shared host), process start and checks included; used
# only to turn --seconds into a generation count.
NOMINAL_S = {"op-heavy": 6.5, "many-users": 9.0, "des-nfs": 7.0}
# CPU seconds one call of child.reference_loop_s() takes on the host the
# benchmark was defined on, in its usual state.  End-to-end times are
# scaled to a host where it takes exactly this long.
HOST_REF_S = 0.25
# Every child must be done by then, so a run ends within 180 s.
DEADLINE_S = 170.0
# Single-threaded numeric libraries: the benchmark is single-process and
# single-threaded by design.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def population_seed(seed: int, k: int) -> int:
    """Seed of generation ``k``'s population (``k == 0`` keeps ``seed``)."""
    if k == 0:
        return seed
    data = hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()
    return int.from_bytes(data[:4], "big")


def generations(workload: str, seconds: float) -> int:
    """How many generations a run of ``seconds`` makes (at least two)."""
    return max(2, round(seconds / NOMINAL_S[workload]))


def run_child(job: dict, started: float) -> dict:
    """Run one generation in a fresh process; return its result."""
    env = dict(os.environ, **CHILD_ENV)
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError("out of time before the next generation")
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, CHILD, json.dumps(job)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"generation of {job['workload']} (population seed "
            f"{job['population_seed']}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_slowdown(results: list) -> float:
    """How much slower than nominal the host ran these generations.

    The mean reference-loop time over ``HOST_REF_S``: 1.3 means the
    reference loop, timed next to each timed region, took 30% longer
    than on the defining host's usual state.
    """
    return statistics.mean(r["host_ref_s"] for r in results) / HOST_REF_S


def raw_end_to_end(results: list) -> dict:
    """The end-to-end figures as measured on this host."""
    cpu = sum(r["cpu_s"] for r in results)
    return {
        "ops_per_s": sum(r["ops"] for r in results) / cpu,
        "wall_s": sum(r["wall_s"] for r in results) / len(results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                          for r in results),
    }


def end_to_end(results: list) -> dict:
    """The end-to-end metrics of an untraced run's generations.

    Times are host-normalised: divided (throughput multiplied) by
    :func:`host_slowdown`, so a run made while the host is in a slow
    state reads like one made in its usual state.
    """
    raw = raw_end_to_end(results)
    slowdown = host_slowdown(results)
    return {
        "ops_per_s": _metric(raw["ops_per_s"] * slowdown, "ops/s"),
        "wall_s": _metric(raw["wall_s"] / slowdown, "s"),
        "setup_s": _metric(raw["setup_s"] / slowdown, "s"),
        "peak_rss_mib": _metric(raw["peak_rss_mib"], "MiB"),
    }


def per_layer(plain: list, traced: list) -> dict:
    """The per-layer metrics of a traced run's generation pairs."""
    from perfbench.tracer import layers

    n = len(traced)
    metrics = {}
    for layer in layers(("call", "iter")):
        metrics[f"{layer}_s"] = _metric(
            sum(r["self_s"].get(layer, 0.0) for r in traced) / n, "s")
        metrics[f"{layer}_calls"] = _metric(
            sum(r["calls"].get(layer, 0) for r in traced) / n, "count")
    for layer in layers(("count",)):
        metrics[layer] = _metric(
            sum(r["calls"].get(layer, 0) for r in traced) / n, "count")
    metrics["trace.unattributed_s"] = _metric(
        sum(r["unattributed_s"] for r in traced) / n, "s")
    metrics["trace.cpu_s"] = _metric(
        sum(r["traced_s"] for r in traced) / n, "s")
    metrics["trace.overhead_pct"] = _metric(
        100.0 * (sum(r["region_cpu_s"] for r in traced)
                 / sum(r["region_cpu_s"] for r in plain) - 1.0), "%")
    facts = [r["facts"] for r in plain + traced]
    ops = sum(r["ops"] for r in plain + traced)
    metrics["streamfile.chunks"] = _metric(
        sum(f.get("chunks", 0) for f in facts) / len(facts), "count")
    metrics["streamfile.bytes_per_op"] = _metric(
        sum(f.get("artifact_bytes", 0) for f in facts) / ops, "B/op")
    replay_cpu = sum(r["facts"].get("replay_cpu_s", 0.0) for r in plain)
    metrics["streamfile.replay_ops_per_s"] = _metric(
        sum(r["facts"].get("replay_rows", 0) for r in plain) / replay_cpu
        if replay_cpu else 0.0, "ops/s")
    hits = sum(f.get("cache_hits", 0) for f in facts)
    lookups = hits + sum(f.get("cache_misses", 0) for f in facts)
    metrics["nfs.server_cache_hit_ratio"] = _metric(
        hits / lookups if lookups else 0.0, "fraction")
    metrics["sim.simulated_us"] = _metric(
        sum(f.get("simulated_duration_us", 0.0) for f in facts)
        / len(facts), "us")
    return metrics


def check_summary(results: list) -> tuple[int, list]:
    """(output checks attempted, the failed ones) over all generations."""
    attempted = sum(len(r["checks"]) for r in results)
    failed = [f"population {r['population_seed']}: {name}"
              for r in results for name, ok in r["checks"] if not ok]
    return attempted, failed


def run_generations(workload: str, seed: int, seconds: float, traced: bool,
            workdir: str) -> tuple[list, list]:
    """Run the generations; return (untraced results, traced results)."""
    with open(REFERENCE, encoding="utf-8") as stream:
        reference = json.load(stream)
    pinned = reference["workloads"][workload]
    cpus = sorted(os.sched_getaffinity(0))
    started = time.monotonic()
    count = generations(workload, seconds)
    plan = ([(k, False) for k in range(count)] if not traced else
            [(k, t) for k in range(max(1, count // 2)) for t in (False, True)])
    plain, traced_results = [], []
    for k, trace in plan:
        pop_seed = population_seed(seed, k)
        # Generations alternate between the CPUs; the two of a traced
        # pair share one.
        job = {"workload": workload, "population_seed": pop_seed,
               "traced": trace, "workdir": workdir,
               "cpu": cpus[k % len(cpus)],
               "reference": pinned.get(str(pop_seed))}
        result = run_child(job, started)
        result.update(population_seed=pop_seed, cpu=job["cpu"],
                      pinned=job["reference"] is not None)
        (traced_results if trace else plain).append(result)
    return plain, traced_results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT]
    from benchmarks._env import bench_env

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plain, traced = run_generations(args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = plain + traced
    attempted, failed = check_summary(results)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    host_ref_s = statistics.mean(r["host_ref_s"] for r in results)
    if args.trace:
        metrics["error_rate"] = _metric(len(failed) / attempted, "fraction")
        metrics["host.ref_s"] = _metric(host_ref_s, "s")
    env = dict(bench_env(), loadavg=os.getloadavg(), host_ref_s=host_ref_s)
    print(json.dumps({
        "env": env, "workload": args.workload, "seed": args.seed,
        "host_slowdown": host_slowdown(plain),
        "raw_end_to_end": raw_end_to_end(plain),
        "failed_checks": failed,
        "generations": [
            {key: r[key] for key in ("population_seed", "pinned", "cpu",
                                     "ops", "cpu_s", "wall_s", "setup_s",
                                     "peak_rss_mib", "host_ref_s")}
            | {"traced": "self_s" in r} for r in results],
    }))
    print(json.dumps({
        "correct": not failed, "attempted": attempted,
        "failed": len(failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
