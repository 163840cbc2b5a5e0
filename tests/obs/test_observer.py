"""Unit tests for the observer hooks and the instrumented sink."""

import pytest

from repro.core import WorkloadGenerator, paper_workload_spec
from repro.core.opbatch import OpBatch
from repro.core.oplog import OpRecord, SessionRecord, UsageLog
from repro.obs import NULL_OBSERVER, RunObserver
from repro.obs.observer import NullObserver, Observer, ObservingSink

SPEC = paper_workload_spec(n_users=3, total_files=150, seed=11)


def make_records(n=4):
    return [
        OpRecord(user_id=1, user_type="researcher", session_id=0,
                 op="read" if i % 2 else "open", path=f"/f{i}",
                 category_key="research-small", size=100 * i,
                 start_us=float(i), response_us=float(10 + i))
        for i in range(n)
    ]


class ScalarOnlySink:
    """OpSink with no ``record_batch`` — forces the bridge path."""

    def __init__(self):
        self.ops = []
        self.sessions = []

    def record_op(self, record):
        self.ops.append(record)

    def record_session(self, record):
        self.sessions.append(record)


class RecordingProgress:
    def __init__(self):
        self.samples = []

    def update(self, users, ops):
        self.samples.append((users, ops))


class TestNullObserver:
    def test_shared_singleton_and_protocol(self):
        assert NULL_OBSERVER.enabled is False
        assert isinstance(NULL_OBSERVER, NullObserver)
        assert isinstance(NULL_OBSERVER, Observer)

    def test_stage_reuses_one_context(self):
        ctx = NULL_OBSERVER.stage("plan")
        assert NULL_OBSERVER.stage("execute") is ctx
        with ctx as entered:
            assert entered is ctx

    def test_iterable_and_sink_pass_through_unchanged(self):
        items = [1, 2, 3]
        assert NULL_OBSERVER.timed_iter("synthesize", items) is items
        sink = UsageLog()
        assert NULL_OBSERVER.wrap_sink(sink) is sink

    def test_ticks_are_noops(self):
        NULL_OBSERVER.tick_users()
        NULL_OBSERVER.tick_ops(100)


class TestRunObserver:
    def test_stage_span_accumulates(self):
        obs = RunObserver()
        for _ in range(3):
            with obs.stage("plan"):
                pass
        times = obs.stages["plan"]
        assert times.calls == 3
        assert times.wall_s >= 0.0
        assert times.cpu_s >= 0.0

    def test_stage_times_get_or_create(self):
        obs = RunObserver()
        assert obs.stage_times("x") is obs.stage_times("x")

    def test_timed_iter_yields_everything_and_counts_rows(self):
        obs = RunObserver()
        assert list(obs.timed_iter("synthesize", iter("abc"))) == ["a", "b",
                                                                   "c"]
        times = obs.stages["synthesize"]
        assert times.rows == 3
        # Each item plus the final StopIteration probe is one timed call.
        assert times.calls == 4

    def test_timed_iter_tick_users_feeds_progress(self):
        progress = RecordingProgress()
        obs = RunObserver(progress=progress)
        list(obs.timed_iter("synthesize", range(3), tick_users=True))
        assert obs.metrics.counter("users").value == 3
        assert progress.samples[-1] == (3, 0)

    def test_tick_ops_updates_counter_and_progress(self):
        progress = RecordingProgress()
        obs = RunObserver(progress=progress)
        obs.tick_ops(7)
        obs.tick_ops(5)
        assert obs.metrics.counter("ops").value == 12
        assert progress.samples == [(0, 7), (0, 12)]

    def test_snapshot_includes_sorted_stages(self):
        obs = RunObserver()
        with obs.stage("execute"):
            pass
        with obs.stage("plan"):
            pass
        snap = obs.snapshot()
        assert list(snap["stages"]) == ["execute", "plan"]
        assert snap["stages"]["plan"]["calls"] == 1
        assert set(snap) >= {"counters", "gauges", "stats", "histograms",
                             "stages"}


class TestObservingSink:
    def test_scalar_path_counts_and_forwards(self):
        obs = RunObserver()
        inner = ScalarOnlySink()
        sink = obs.wrap_sink(inner)
        assert isinstance(sink, ObservingSink)
        records = make_records(4)
        for record in records:
            sink.record_op(record)
        sink.record_session(SessionRecord(
            user_id=1, user_type="researcher", session_id=0,
            start_us=0.0, end_us=1.0, files_referenced=2,
            bytes_accessed=600, file_bytes_referenced=600,
            categories=("research-small",)))
        assert inner.ops == records
        assert len(inner.sessions) == 1
        assert obs.metrics.counter("ops").value == 4
        assert obs.metrics.counter("sessions").value == 1
        assert (obs.metrics.counter("bytes_moved").value
                == sum(r.size for r in records))
        stat = obs.metrics.stat("response_us")
        assert stat.count == 4
        assert stat.minimum == 10.0

    def test_batch_path_forwards_to_batch_aware_inner(self):
        obs = RunObserver()
        inner = UsageLog()
        sink = obs.wrap_sink(inner)
        batch = OpBatch.from_records(make_records(5))
        sink.record_batch(batch)
        # Forwarding and the op/row ticks are live; the array accounting
        # (bytes, stat, histogram) is deferred until flush.
        assert inner.operations == batch.to_records()
        assert obs.metrics.counter("ops").value == 5
        assert obs.stages["sink"].rows == 5
        sink.flush()
        assert (obs.metrics.counter("bytes_moved").value
                == int(batch.sizes.sum()))
        assert obs.stages["sink"].bytes == int(batch.sizes.sum())

    def test_batch_path_bridges_for_scalar_only_inner(self):
        obs = RunObserver()
        inner = ScalarOnlySink()
        sink = obs.wrap_sink(inner)
        batch = OpBatch.from_records(make_records(3))
        sink.record_batch(batch)
        # The bridge must hand the inner sink exactly what the executor's
        # own to_records fallback would have handed it.
        assert inner.ops == batch.to_records()
        assert obs.metrics.counter("ops").value == 3
        sink.flush()
        assert obs.metrics.stat("response_us").count == 3

    def test_snapshot_flushes_deferred_batch_accounting(self):
        obs = RunObserver()
        sink = obs.wrap_sink(UsageLog())
        batch = OpBatch.from_records(make_records(4))
        sink.record_batch(batch)
        snap = obs.snapshot()
        assert snap["stats"]["response_us"]["count"] == 4
        assert (snap["counters"]["bytes_moved"]
                == int(batch.sizes.sum()))
        # flush is idempotent: a second snapshot counts nothing twice.
        assert obs.snapshot()["stats"]["response_us"]["count"] == 4


class TestEndToEndCounters:
    @pytest.mark.parametrize("backend", ["nfs", "fast-columnar"])
    def test_counters_match_log(self, backend):
        obs = RunObserver()
        result = WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=2, backend=backend, observer=obs)
        assert obs.metrics.counter("ops").value == len(result.log.operations)
        assert (obs.metrics.counter("sessions").value
                == len(result.log.sessions))
        assert obs.metrics.counter("users").value == SPEC.n_users
        assert obs.metrics.stat("response_us").count == len(
            result.log.operations)
        assert {"plan", "synthesize", "execute"} <= set(obs.stages)

    def test_result_log_is_not_the_wrapper(self):
        obs = RunObserver()
        result = WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=1, backend="fast-columnar", observer=obs)
        assert isinstance(result.log, UsageLog)

    def test_scalar_and_columnar_byte_counters_agree(self):
        snaps = []
        # The DES records op by op, fast-columnar in batches.
        for backend in ("nfs", "fast-columnar"):
            obs = RunObserver()
            WorkloadGenerator(SPEC).run_simulated(
                sessions_per_user=2, backend=backend, observer=obs)
            snaps.append(obs.snapshot())
        a, b = snaps
        assert a["counters"] == b["counters"]
