"""Backend throughput: DES simulation vs engine-free columnar replay.

Runs the same ``mixed-campus`` population through the discrete-event
``nfs`` backend and the engine-free ``fast-columnar`` backend, and
reports, per backend, wall-clock time and ops per second — plus the
speedup.  Before timing anything it asserts that both backends' **op
streams are byte-identical** (op kind, path, size, per user and session)
at a reduced population: that identity is the staged pipeline's core
guarantee, and a throughput number for a *different* workload would be
meaningless.

Speedup floors enforced at full size (tiny smoke runs skip them):

* ``fast-columnar`` >= 40x the DES ops/s;
* ``fast-columnar`` >= 40x the DES **with arrivals enabled** too — the
  temporal load layer resolves schedules once per user, so it must not
  erode the columnar floor.

Each sweep therefore runs twice: once classic (all users at clock 0)
and once with the scenario's arrival model (diurnal session timing).
The identity check also runs both ways: arrivals must move the
timeline without touching the op stream.

Observability: the columnar backend is additionally timed with a full
:class:`repro.obs.RunObserver` attached (metrics registry, stage spans,
instrumented sink, manifest write) and the overhead is recorded as
``metrics_overhead_pct`` — best metrics-on wall over best metrics-off
wall across interleaved runs, floored at 10% as a regression tripwire
(the true cost is ~2%; see ``MAX_METRICS_OVERHEAD_PCT``).  A
record-for-record identity check proves the observer never perturbs the
op stream on any backend.

The engine-free runs are timed best-of-``BENCH_BACKENDS_REPEATS``
(default 3) because they are short enough for scheduler noise to
matter; the DES run is long and timed once.

Machine-readable results go to ``BENCH_backends.json`` (override with
``BENCH_BACKENDS_JSON``).  ``BENCH_BACKENDS_USERS`` /
``BENCH_BACKENDS_SESSIONS`` shrink the timed population for CI smoke
runs.

Run either way::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q
    PYTHONPATH=src python benchmarks/bench_backends.py
"""

import os
import tempfile
import time

from repro.core import WorkloadGenerator
from repro.fleet import FleetConfig, run_fleet
from repro.harness import format_table
from repro.obs import RunObserver
from repro.scenarios import get_scenario

try:
    from ._env import write_results_json as _write_env_json
except ImportError:  # script mode: benchmarks/ is sys.path[0]
    from _env import write_results_json as _write_env_json

DEFAULT_USERS = 240
DEFAULT_SESSIONS = 4
SEED = 7
SCENARIO = "mixed-campus"
BACKENDS = ("nfs", "fast-columnar")
# Raised from 20x with the fused per-user kernel (pooled samplers, flat
# column buffers, one intern_many per user): measured ~55-60x on the CI
# box, floored with ~30% headroom for scheduler noise.
MIN_COLUMNAR_OVER_SIM = 40.0       # fast-columnar over DES
# Regression tripwire, not a precision claim.  The observer's true cost
# is ~2% of the columnar wall (deferred batch accounting: two list
# appends per batch, one bulk stat/histogram fold per 64k rows —
# micro-benchmarked at ~15 ms against a ~0.7 s run), but single runs on
# shared 1-CPU runners disperse by ±10% in wall *and* CPU time, so a
# single-digit floor would trip on scheduler noise alone.  10% cleanly
# separates "noise around ~2%" from a real per-op regression (a
# per-record Python-loop observer costs 50%+).  The per-pair deltas
# ride along in the JSON to show the dispersion.
MAX_METRICS_OVERHEAD_PCT = 10.0    # metrics-on columnar vs metrics-off
DEFAULT_JSON_PATH = "BENCH_backends.json"

USERS = int(os.environ.get("BENCH_BACKENDS_USERS", DEFAULT_USERS))
SESSIONS = int(os.environ.get("BENCH_BACKENDS_SESSIONS", DEFAULT_SESSIONS))
REPEATS = max(1, int(os.environ.get("BENCH_BACKENDS_REPEATS", 3)))
JSON_PATH = os.environ.get("BENCH_BACKENDS_JSON", DEFAULT_JSON_PATH)


def _content_by_user(log):
    """Per-user, in-order, timing-free projection of an op log.

    The DES interleaves users on the engine clock while the engine-free
    replay runs them sequentially, so global order legitimately differs — but
    each user's own stream must match element for element.
    """
    by_user = {}
    for o in log.operations:
        by_user.setdefault(o.user_id, []).append(
            (o.session_id, o.op, o.path, o.category_key, o.size)
        )
    return by_user


def assert_identical_streams(users: int, seed: int = SEED,
                             arrivals: bool = False) -> int:
    """Run every backend with full op logs; assert stream identity.

    With ``arrivals=True`` the scenario's temporal load model is
    enabled: the op stream must *still* be identical across backends
    (arrivals move only the timeline).

    Returns the number of ops compared.
    """
    scenario = get_scenario(SCENARIO)
    spec = scenario.build(users, seed)
    model = (scenario.arrival_model if arrivals else None)
    logs = {}
    for backend in BACKENDS:
        result = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=scenario.default_sessions,
            backend=backend,
            access_pattern=scenario.access_pattern,
            arrivals=model,
        )
        logs[backend] = result.log
    reference = _content_by_user(logs[BACKENDS[0]])
    for backend in BACKENDS[1:]:
        assert _content_by_user(logs[backend]) == reference, (
            f"{backend} op stream diverged from the {BACKENDS[0]} stream"
            f"{' (arrivals enabled)' if arrivals else ''}"
        )
    return sum(len(ops) for ops in reference.values())


def assert_metrics_noninvasive(users: int, seed: int = SEED) -> int:
    """Observer-on runs must record exactly the observer-off op stream.

    Runs every backend twice — once bare, once under a fully enabled
    :class:`~repro.obs.RunObserver` — and asserts the recorded
    operations and sessions are equal record-for-record (timing
    included).  This is the zero-perturbation guarantee: metrics read
    the event stream, they never touch RNG streams or op bytes.

    Returns the number of ops compared.
    """
    scenario = get_scenario(SCENARIO)
    spec = scenario.build(users, seed)
    compared = 0
    for backend in BACKENDS:
        bare = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=scenario.default_sessions,
            backend=backend,
            access_pattern=scenario.access_pattern,
        )
        observed = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=scenario.default_sessions,
            backend=backend,
            access_pattern=scenario.access_pattern,
            observer=RunObserver(),
        )
        assert bare.log.operations == observed.log.operations, (
            f"{backend}: enabling the observer changed the op stream"
        )
        assert bare.log.sessions == observed.log.sessions, (
            f"{backend}: enabling the observer changed session records"
        )
        compared += len(bare.log.operations)
    return compared


def _timed_run(backend: str, users: int, seed: int, repeats: int,
               arrivals: bool = False, metrics: bool = False):
    """Best-of-``repeats`` fleet run; returns (wall_s, tally)."""
    best = None
    result = None
    for _ in range(repeats):
        metrics_out = None
        if metrics:
            fd, metrics_out = tempfile.mkstemp(suffix=".manifest.json")
            os.close(fd)
        try:
            started = time.perf_counter()
            result = run_fleet(FleetConfig(
                scenario=SCENARIO, users=users, shards=1, workers=1,
                seed=seed, backend=backend, sessions_per_user=SESSIONS,
                use_arrivals=arrivals, metrics_out=metrics_out,
            ))
            wall_s = time.perf_counter() - started
        finally:
            if metrics_out is not None:
                os.unlink(metrics_out)
        best = wall_s if best is None else min(best, wall_s)
    return best, result


def _metrics_overhead(users: int, seed: int, repeats: int):
    """Observer cost via interleaved on/off runs; returns
    ``(overhead_pct, pair_deltas_pct, wall_on_best, result_on)``.

    Comparing a metrics-on sweep against a metrics-off sweep timed
    *earlier in the process* conflates observer cost with clock drift —
    cache warmth, allocator state and scheduler mood shift between the
    sweeps, which is how the old measurement reported −10% "overhead".
    Here off-runs and on-runs alternate, so both populations sample the
    same machine state, and the reported overhead compares the
    **fastest** run of each side.  Scheduler noise is one-sided (a
    preemption only ever makes a run slower), so best-of converges on
    the true cost where a mean or a per-pair median keeps the noise —
    individual runs on a busy box swing by more than the overhead floor
    being enforced.  The raw per-pair deltas ride along in the results
    JSON as a dispersion diagnostic.
    """
    deltas = []
    best_off = None
    best_on = None
    result_on = None
    for _ in range(max(repeats, 3)):
        wall_off, _ = _timed_run("fast-columnar", users, seed, 1)
        wall_on, result_on = _timed_run("fast-columnar", users, seed, 1,
                                        metrics=True)
        best_off = wall_off if best_off is None else min(best_off, wall_off)
        best_on = wall_on if best_on is None else min(best_on, wall_on)
        if wall_off > 0:
            deltas.append((wall_on / wall_off - 1.0) * 100.0)
    overhead = ((best_on / best_off - 1.0) * 100.0
                if best_off and best_on else 0.0)
    return overhead, deltas, best_on, result_on


def _timed_sweep(users: int, seed: int, arrivals: bool):
    """Time every backend once; returns (rows, wall-by-backend)."""
    runs = []
    wall_by_backend = {}
    for backend in BACKENDS:
        # The DES run is minutes-long and steady; the engine-free run
        # is sub-second, where one scheduler hiccup would swing the
        # recorded speedups, so they take the best of several repeats.
        repeats = 1 if backend == "nfs" else REPEATS
        wall_s, result = _timed_run(backend, users, seed, repeats,
                                    arrivals=arrivals)
        wall_by_backend[backend] = wall_s
        runs.append({
            "backend": backend,
            "arrivals": arrivals,
            "wall_s": wall_s,
            "repeats": repeats,
            "ops": result.tally.operations,
            "ops_per_s": (result.tally.operations / wall_s
                          if wall_s > 0 else 0.0),
        })
    return runs, wall_by_backend


def backend_throughput_results(users: int = None, seed: int = SEED) -> dict:
    """Determinism check + timed sweep; returns the result dict.

    Two sweeps run: the classic everyone-starts-at-zero configuration,
    and the same population with the scenario's arrival model enabled —
    the temporal layer must not erode the columnar floor (>= 40x the
    DES), since schedules are resolved once per user and the hot path
    is untouched.
    """
    users = USERS if users is None else users
    check_users = max(4, users // 8)
    checked_ops = assert_identical_streams(check_users, seed)
    checked_ops_arrivals = assert_identical_streams(check_users, seed,
                                                    arrivals=True)
    checked_ops_metrics = assert_metrics_noninvasive(check_users, seed)

    runs, wall_by_backend = _timed_sweep(users, seed, arrivals=False)
    runs_arrivals, wall_arrivals = _timed_sweep(users, seed, arrivals=True)

    # Observability overhead: the columnar hot path re-timed with a full
    # observer (registry + spans + instrumented sink + manifest write),
    # measured as the median delta over interleaved on/off pairs; its
    # floor is that wall time stays within MAX_METRICS_OVERHEAD_PCT.
    metrics_overhead_pct, overhead_pairs, wall_metrics, result_metrics = (
        _metrics_overhead(users, seed, REPEATS)
    )
    run_metrics = {
        "backend": "fast-columnar",
        "arrivals": False,
        "metrics": True,
        "wall_s": wall_metrics,
        "repeats": max(REPEATS, 3),
        "ops": result_metrics.tally.operations,
        "ops_per_s": (result_metrics.tally.operations / wall_metrics
                      if wall_metrics > 0 else 0.0),
    }
    # Stage attribution for the timed columnar run: plan / synthesize /
    # execute / sink wall and CPU seconds from the observer's spans, so
    # a future regression points at a stage instead of just a total.
    stage_spans = {
        name: {"wall_s": span["wall_s"], "cpu_s": span["cpu_s"],
               "calls": span["calls"]}
        for name, span in (result_metrics.metrics or {}).get(
            "stages", {}).items()
    }

    def speedup(walls, numerator, denominator):
        if walls[denominator] <= 0:
            return 0.0
        return walls[numerator] / walls[denominator]

    return {
        "benchmark": "backends",
        "scenario": SCENARIO,
        "users": users,
        "sessions_per_user": SESSIONS,
        "seed": seed,
        "identical_streams": True,
        "identity_checked_users": check_users,
        "identity_checked_ops": checked_ops,
        "identity_checked_ops_arrivals": checked_ops_arrivals,
        "identity_checked_ops_metrics": checked_ops_metrics,
        "metrics_overhead_pct": metrics_overhead_pct,
        "metrics_overhead_pairs_pct": overhead_pairs,
        "stage_spans": stage_spans,
        "speedup_columnar_over_sim": speedup(
            wall_by_backend, "nfs", "fast-columnar"),
        "speedup_columnar_over_sim_arrivals": speedup(
            wall_arrivals, "nfs", "fast-columnar"),
        "runs": runs,
        "runs_arrivals": runs_arrivals,
        "run_metrics": run_metrics,
    }


def write_results_json(results: dict, path: str = None) -> str:
    """Write the result dict (env-stamped) as JSON; returns the path."""
    return _write_env_json(results, JSON_PATH if path is None else path)


def results_table(results: dict) -> str:
    """Render the result dict as the human-readable table."""
    timed = results["runs"] + results.get("runs_arrivals", [])
    if results.get("run_metrics"):
        timed = timed + [results["run_metrics"]]
    rows = [
        (run["backend"], "yes" if run.get("arrivals") else "no",
         "yes" if run.get("metrics") else "no",
         run["wall_s"], run["ops"], run["ops_per_s"])
        for run in timed
    ]
    return format_table(
        ["backend", "arrivals", "metrics", "wall s", "ops", "ops/s"],
        rows,
        title=(
            f"Backend throughput — {results['scenario']}, "
            f"{results['users']} users x {results['sessions_per_user']} "
            f"sessions, seed {results['seed']}; streams identical over "
            f"{results['identity_checked_ops']} ops; columnar is "
            f"{results['speedup_columnar_over_sim']:.1f}x sim ("
            f"{results['speedup_columnar_over_sim_arrivals']:.1f}x sim "
            "with arrivals); metrics overhead "
            f"{results['metrics_overhead_pct']:+.1f}%"
        ),
    )


def _speedup_assertion_applies(results: dict) -> bool:
    # Wall-clock ratios at smoke sizes are dominated by fixed setup
    # (FSC, tabulation), so the throughput floors only bind full runs.
    return (results["users"] >= DEFAULT_USERS
            and results["sessions_per_user"] >= DEFAULT_SESSIONS)


def check_speedup_floors(results: dict) -> list[str]:
    """Floor violations (empty when all speedups clear their floors)."""
    failures = []
    for key, floor in (
        ("speedup_columnar_over_sim", MIN_COLUMNAR_OVER_SIM),
        ("speedup_columnar_over_sim_arrivals", MIN_COLUMNAR_OVER_SIM),
    ):
        if results[key] < floor:
            failures.append(
                f"expected {key} >= {floor}x, got {results[key]:.2f}x"
            )
    if results["metrics_overhead_pct"] > MAX_METRICS_OVERHEAD_PCT:
        failures.append(
            f"expected metrics_overhead_pct <= {MAX_METRICS_OVERHEAD_PCT}%, "
            f"got {results['metrics_overhead_pct']:.2f}%"
        )
    return failures


def test_bench_backends(benchmark):
    from .conftest import emit, once

    results = once(benchmark, backend_throughput_results)
    emit("bench_backends", results_table(results))
    path = write_results_json(results)
    print(f"\nmachine-readable results written to {path}")
    assert results["identical_streams"]
    if _speedup_assertion_applies(results):
        failures = check_speedup_floors(results)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    results = backend_throughput_results()
    print(results_table(results))
    path = write_results_json(results)
    print(f"\nmachine-readable results written to {path}")
    if _speedup_assertion_applies(results):
        failures = check_speedup_floors(results)
        if failures:
            raise SystemExit("; ".join(failures))
