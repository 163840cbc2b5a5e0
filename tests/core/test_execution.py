"""Execution backends: cross-backend stream identity, the analytic
service model, time limits, and pathological-draw clamping."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import (
    AnalyticServiceModel,
    ColumnarReplayBackend,
    FileSystemCreator,
    PhaseModel,
    RUN_BACKENDS,
    SessionGenerator,
    UsageLog,
    UserSessions,
    WorkloadGenerator,
    paper_user_type,
    paper_workload_spec,
)
from repro.distributions import Distribution, RandomStreams
from repro.vfs import MemoryFileSystem

from .scalar_reference import run_reference

SPEC = paper_workload_spec(n_users=3, total_files=200, seed=21)


def content_ops(log: UsageLog):
    """The timing-free projection of an op log (what must match)."""
    return [
        (o.user_id, o.user_type, o.session_id, o.op, o.path, o.category_key,
         o.size)
        for o in log.operations
    ]


def content_sessions(log: UsageLog):
    return [
        (s.user_id, s.user_type, s.session_id, s.files_referenced,
         s.bytes_accessed, s.file_bytes_referenced, s.categories)
        for s in log.sessions
    ]


def run(backend, **kwargs):
    return WorkloadGenerator(SPEC).run_simulated(
        sessions_per_user=2, backend=backend, **kwargs
    )


class TestCrossBackendDeterminism:
    def test_fast_matches_des_stream_exactly(self):
        sim = run("nfs")
        fast = run("fast-columnar")
        # Same multiset overall, and the same in-order stream per user
        # (the DES interleaves users on the engine clock; the fast path
        # runs them one after another).
        assert sorted(content_ops(sim.log)) == sorted(content_ops(fast.log))
        for user_id in range(SPEC.n_users):
            assert (
                [op for op in content_ops(sim.log) if op[0] == user_id]
                == [op for op in content_ops(fast.log) if op[0] == user_id]
            )
        assert sorted(content_sessions(sim.log)) == sorted(
            content_sessions(fast.log)
        )

    def test_fast_matches_des_with_random_access_and_phases(self):
        sim = run("nfs", access_pattern="random",
                  phase_model_factory=PhaseModel)
        fast = run("fast-columnar", access_pattern="random",
                   phase_model_factory=PhaseModel)
        assert sorted(content_ops(sim.log)) == sorted(content_ops(fast.log))

    def test_fast_is_deterministic(self):
        assert (content_ops(run("fast-columnar").log)
                == content_ops(run("fast-columnar").log))

    def test_only_timing_differs(self):
        sim = run("nfs")
        fast = run("fast-columnar")
        sim_times = {
            (o.user_id, o.session_id, o.op, o.path): o.response_us
            for o in sim.log.operations
        }
        diffs = sum(
            1
            for o in fast.log.operations
            if sim_times.get((o.user_id, o.session_id, o.op, o.path))
            != o.response_us
        )
        assert diffs > 0  # timings come from different models

    def test_fast_run_result_shape(self):
        result = run("fast-columnar")
        assert result.backend == "fast-columnar"
        assert result.handle is None
        assert result.simulated_duration_us > 0
        # The analyzer consumes a fast run's log like any other.
        assert result.analyzer.response_time_stats().count > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run("warp")
        assert RUN_BACKENDS == ("nfs", "local", "afs", "fast-columnar")

    def test_removed_fast_backend_rejected_everywhere(self, capsys):
        """``fast`` was removed, not aliased: the API, the fleet config
        and the CLI each reject it and name the valid choices."""
        from repro.cli import main
        from repro.core import SpecError
        from repro.fleet import FleetConfig

        with pytest.raises(ValueError) as api:
            run("fast")
        with pytest.raises(SpecError) as fleet:
            FleetConfig(spec=SPEC, backend="fast")
        with pytest.raises(SystemExit) as cli:
            main(["simulate", "--backend", "fast"])
        assert cli.value.code == 2
        cli_error = capsys.readouterr().err
        assert "invalid choice: 'fast'" in cli_error
        for message in (str(api.value), str(fleet.value), cli_error):
            for name in RUN_BACKENDS:
                assert name in message


class TestStagedPipeline:
    def test_plan_users_validates_ids(self):
        generator = WorkloadGenerator(SPEC)
        with pytest.raises(ValueError):
            generator.plan_users([0, 99])
        assignment, selected = generator.plan_users([2, 0])
        assert selected == [0, 2]
        assert len(assignment) == SPEC.n_users

    def test_synthesis_needs_no_executor(self):
        generator = WorkloadGenerator(SPEC)
        layout = generator.create_file_system(
            MemoryFileSystem(), materialize_users=set()
        )
        _, selected = generator.plan_users()
        users = generator.synthesize_users(layout, selected)
        ops = [op for op in users[0].generate_session(0)]
        assert any(op.kind != "think" for op in ops)

    def test_fleet_shard_invariance_on_fast_backend(self):
        from repro.fleet import FleetConfig, run_fleet

        single = run_fleet(FleetConfig(spec=SPEC, shards=1,
                                       backend="fast-columnar"))
        sharded = run_fleet(FleetConfig(spec=SPEC, shards=3,
                                        backend="fast-columnar"))
        assert single.aggregate_kv() == sharded.aggregate_kv()


class TestAnalyticServiceModel:
    def test_costs_are_positive_and_deterministic(self):
        model = AnalyticServiceModel()
        for kind in ("open", "creat", "read", "write", "lseek", "close",
                     "unlink", "stat", "listdir"):
            cost = model.response_us(kind, 4096)
            assert cost > 0
            assert cost == model.response_us(kind, 4096)

    def test_local_ops_cost_less_than_rpcs(self):
        model = AnalyticServiceModel()
        assert model.response_us("lseek") < model.response_us("stat")

    def test_data_cost_grows_with_bytes_and_pages(self):
        model = AnalyticServiceModel()
        small = model.response_us("read", 1024)
        one_page = model.response_us("read", model.page_bytes)
        two_pages = model.response_us("read", model.page_bytes + 1)
        assert small < one_page < two_pages
        # The page split charges a whole extra RPC round trip.
        assert two_pages - one_page >= model.per_rpc_us

    def test_time_limit_truncates_fast_runs(self):
        full = run("fast-columnar")
        limit = full.simulated_duration_us / 4
        cut = run("fast-columnar", time_limit_us=limit)
        assert cut.simulated_duration_us <= limit
        assert len(cut.log.operations) < len(full.log.operations)
        assert all(o.start_us < limit for o in cut.log.operations)
        # A session summary is only recorded if it completed within the
        # limit (the DES drops interrupted sessions the same way).
        assert all(s.end_us <= limit for s in cut.log.sessions)

    def test_time_limit_truncates_des_runs(self):
        # Regression: the DES used to raise SimulationError past the
        # limit instead of truncating like the engine-free backends.
        full = run("nfs")
        limit = full.simulated_duration_us / 4
        cut = run("nfs", time_limit_us=limit)
        assert cut.simulated_duration_us <= limit
        assert len(cut.log.operations) < len(full.log.operations)
        assert all(o.start_us < limit for o in cut.log.operations)
        assert all(s.end_us <= limit for s in cut.log.sessions)

    @pytest.mark.parametrize("which", ["op-start", "session-end"])
    def test_exact_boundary_limit_is_exclusive_across_backends(self, which):
        # The pinned rule: an op starting exactly at the limit is
        # excluded — `start >= limit` drops the op — and the per-op
        # reference replay and fast-columnar stay bit-identical at that
        # exact boundary.
        full = run("fast-columnar")
        if which == "op-start":
            limit = full.log.operations[len(full.log.operations) // 2].start_us
        else:
            limit = full.log.sessions[0].end_us
        assert limit > 0.0
        scalar = run_reference(SPEC, 2, time_limit_us=limit)
        columnar = run("fast-columnar", time_limit_us=limit)
        assert scalar.log.operations == columnar.log.operations
        assert scalar.log.sessions == columnar.log.sessions
        assert scalar.simulated_duration_us == columnar.simulated_duration_us
        for result in (scalar, columnar):
            assert all(o.start_us < limit for o in result.log.operations)
            assert not any(o.start_us == limit for o in result.log.operations)
        # the DES applies the same exclusive-boundary rule to its own clock
        des = run("nfs", time_limit_us=limit)
        assert all(o.start_us < limit for o in des.log.operations)


class _ScriptedDistribution(Distribution):
    """Cycles through a fixed list of values (NaN/negatives included)."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def pdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def cdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def mean(self):
        return 0.0

    def var(self):
        return 0.0

    def sample(self, rng, size=None):
        if size is None:
            return float(self._values[0])
        return np.resize(self._values, int(size))

    def support(self):
        return 0.0, 1.0


class TestPathologicalDrawClamping:
    """Satellite fix: NaN/negative draws from fitted distributions must be
    clamped at synthesis instead of exploding in an executor."""

    @pytest.fixture(scope="class")
    def layout(self):
        spec = paper_workload_spec(n_users=1, total_files=120, seed=5)
        return FileSystemCreator(spec).create(MemoryFileSystem())

    def _generate(self, layout, **overrides):
        user_type = dataclasses.replace(
            paper_user_type("t", think_time_mean_us=1000.0), **overrides
        )
        generator = SessionGenerator(
            user_type, layout, RandomStreams(9), user_id=0
        )
        return list(generator.generate_session(0))

    def test_nan_and_negative_think_become_zero(self, layout):
        ops = self._generate(
            layout,
            think_time=_ScriptedDistribution([float("nan"), -500.0, 2000.0]),
        )
        thinks = [op.size for op in ops if op.kind == "think"]
        assert thinks, "session generated no ops"
        assert all(t >= 0 for t in thinks)
        assert all(isinstance(t, int) for t in thinks)

    def test_nan_chunks_fall_back_to_one_byte(self, layout):
        ops = self._generate(
            layout, access_size=_ScriptedDistribution([float("nan")])
        )
        data = [op for op in ops if op.kind in ("read", "write")]
        assert data, "session generated no data ops"
        assert all(op.size == 1 for op in data)

    def test_inf_think_becomes_zero(self, layout):
        ops = self._generate(
            layout, think_time=_ScriptedDistribution([float("inf")])
        )
        assert all(op.size == 0 for op in ops if op.kind == "think")

    def test_clamped_stream_survives_execution(self, layout):
        """A pathological user type must run end to end engine-free."""
        user_type = dataclasses.replace(
            paper_user_type("t"),
            think_time=_ScriptedDistribution([float("nan"), -1.0]),
            access_size=_ScriptedDistribution([float("nan"), 512.0]),
        )
        generator = SessionGenerator(
            user_type, layout, RandomStreams(9), user_id=0
        )
        log = UsageLog()
        duration = ColumnarReplayBackend().execute(
            [UserSessions(generator, 2)], log
        )
        assert math.isfinite(duration) and duration > 0
        assert log.sessions and log.operations
