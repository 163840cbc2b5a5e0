"""The workloads' output checks, the many-users shape and the trace run.

Populations here are small versions of the benchmark's, so the suite
runs in seconds; the pinned digests of ``reference.json`` belong to the
full sizes and are exercised by the benchmark itself.
"""

import pytest

from perfbench import child, run
from perfbench.tracer import Tracer
from perfbench.workloads import (
    MANY_USERS_SHARDS,
    WORKLOADS,
    _FleetStreamRun,
    _SimulatedRun,
)
from repro.core.synthesis import SessionGenerator
from repro.fleet import runner


def checked(workload, ctx, out, reference):
    return {"population_seed": 0,
            "checks": [[name, ok] for name, ok
                       in workload.checks(ctx, out, reference)]}


def error_rate(results):
    attempted, failed = run.check_summary(results)
    return len(failed) / attempted


@pytest.fixture
def small_op_heavy(tmp_path):
    workload = _SimulatedRun("op-heavy", 6, "fast-columnar")
    ctx = workload.setup(3, str(tmp_path))
    out = workload.generate(ctx)
    return workload, ctx, out, workload.reference(ctx, out)


def test_clean_run_has_zero_error_rate(small_op_heavy):
    workload, ctx, out, reference = small_op_heavy
    assert error_rate([checked(workload, ctx, out, reference)]) == 0.0


@pytest.mark.parametrize("perturb", [
    lambda tally: setattr(tally, "bytes_read", tally.bytes_read + 1),
    lambda tally: tally.ops_by_kind.__setitem__(
        "read", tally.ops_by_kind["read"] + 1),
    lambda tally: setattr(tally, "sessions", tally.sessions - 1),
])
def test_perturbed_tally_drives_error_rate_above_zero(small_op_heavy,
                                                      perturb):
    workload, ctx, out, reference = small_op_heavy
    clean = checked(workload, ctx, out, reference)
    perturb(out.tally)
    bad = checked(workload, ctx, out, reference)
    assert error_rate([clean, bad]) > 0.0
    assert run.check_summary([bad])[1]


def test_reference_free_checks_catch_a_perturbed_tally(small_op_heavy):
    workload, ctx, out, _ = small_op_heavy
    out.tally.sessions += 1
    assert error_rate([checked(workload, ctx, out, None)]) > 0.0


@pytest.fixture
def small_many_users(tmp_path):
    # A budget of ~2.8k rows per chunk against ~6k rows in all.
    workload = _FleetStreamRun(users=100, budget=200_000)
    ctx = workload.setup(5, str(tmp_path))
    return workload, ctx


def test_many_users_spills_several_chunks_and_merges_two_shards(
        small_many_users):
    workload, ctx = small_many_users
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start()
        out = workload.generate(ctx)
        workload.replay(ctx, out)
        tracer.stop()
    finally:
        tracer.remove()
    workload.measure(ctx, out)
    assert len(out.facts["shard_ops"]) == MANY_USERS_SHARDS == 2
    assert tracer.calls["streamfile.merge"] == 1
    assert out.facts["chunks"] > MANY_USERS_SHARDS
    assert min(out.facts["shard_ops"]) > out.facts["rows_per_chunk"]
    results = checked(workload, ctx, out, workload.reference(ctx, out))
    assert error_rate([results]) == 0.0
    names = [name for name, _ in results["checks"]]
    assert "each shard spilled" in names and "artifact digest" in names


def test_an_unspilled_shard_fails_the_spill_check(tmp_path):
    workload = _FleetStreamRun(users=100, budget=1 << 30)
    ctx = workload.setup(5, str(tmp_path))
    out = workload.generate(ctx)
    workload.measure(ctx, out)
    failed = run.check_summary([checked(workload, ctx, out, None)])[1]
    assert failed == ["population 0: each shard spilled"]


def test_many_users_runs_inline_with_one_worker(small_many_users,
                                                monkeypatch):
    workload, ctx = small_many_users
    assert ctx["config"].workers == 1
    assert ctx["config"].effective_workers() == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("the benchmark must not start worker processes")

    monkeypatch.setattr(runner, "ShardSupervisor", no_pool)
    monkeypatch.setattr(runner, "_pool_context", no_pool)
    out = workload.generate(ctx)
    assert out.ops > 0


def test_traced_child_accounts_for_its_cpu_and_unpatches(tmp_path,
                                                         monkeypatch):
    monkeypatch.setitem(WORKLOADS, "op-heavy",
                        _SimulatedRun("op-heavy", 6, "fast-columnar"))
    original = SessionGenerator.generate_user_batch
    result = child.run_job({
        "workload": "op-heavy", "population_seed": 3, "traced": True,
        "workdir": str(tmp_path), "reference": None, "spawned": 0.0,
    })
    assert SessionGenerator.generate_user_batch is original
    assert all(ok for _, ok in result["checks"]), result["checks"]
    assert sum(result["self_s"].values()) == pytest.approx(
        result["traced_s"], abs=1e-6)
    assert result["self_s"]["synthesis.batch"] > 0
    assert result["calls"]["synthesis.batch"] == 6


def test_des_generation_records_simulated_statistics(tmp_path):
    workload = _SimulatedRun("des-nfs", 2, "nfs")
    ctx = workload.setup(4, str(tmp_path))
    out = workload.generate(ctx)
    reference = workload.reference(ctx, out)
    assert reference["simulated_duration_us"] > 0
    assert reference["cache_hits"] + reference["cache_misses"] > 0
    assert error_rate([checked(workload, ctx, out, reference)]) == 0.0
    out.facts["cache_hits"] += 1
    assert error_rate([checked(workload, ctx, out, reference)]) > 0.0
