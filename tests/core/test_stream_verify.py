"""Crash salvage, checkpoint/resume, and verification of stream artifacts.

The recovery contract has three legs:

* **salvage** — an aborted (footer-less) artifact yields exactly its
  CRC-verified full chunks, whether via the checkpoint sidecar or a
  sequential scan, and never a byte of a torn tail;
* **resume** — continuing a salvaged artifact with the remainder of the
  original event stream reproduces the uninterrupted file bit for bit
  (chunk boundaries are a pure function of global row count);
* **verify** — ``verify_stream`` walks every chunk CRC and reports
  corruption and truncation per chunk, loudly.
"""

import json
import os

import pytest

from repro.core import (
    CHECKPOINT_SUFFIX,
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    UsageLog,
    WorkloadGenerator,
    paper_workload_spec,
    resume_stream_sink,
    salvage_stream,
    verify_stream,
)
from repro.core.streamfile import ROW_BYTES, StreamWriter

BUDGET = ROW_BYTES * 32  # 32-row chunks: plenty of flushes at test scale


class _EventRecorder:
    """Capture the exact sink-call sequence of a generation run."""

    def __init__(self):
        self.events = []  # ("batch", OpBatch) | ("session", SessionRecord)
        self.rows = 0

    def record_batch(self, batch):
        self.events.append(("batch", batch))
        self.rows += len(batch)

    def record_session(self, record):
        self.events.append(("session", record))


def _generate_events(seed=23):
    spec = paper_workload_spec(n_users=4, total_files=150, seed=seed)
    recorder = _EventRecorder()
    WorkloadGenerator(spec).run_simulated(
        sessions_per_user=2, backend="fast-columnar", log=recorder)
    return recorder


def _feed(sink, events, *, skip_rows=0, skip_sessions=0, stop_after=None):
    """Replay recorded events into a sink, optionally skipping a prefix
    (the resume path) or stopping after N op rows (the crash path)."""
    fed = 0
    for kind, payload in events:
        if kind == "session":
            if skip_sessions > 0:
                skip_sessions -= 1
                continue
            sink.record_session(payload)
            continue
        batch = payload
        if skip_rows > 0:
            take = min(skip_rows, len(batch))
            skip_rows -= take
            batch = batch.select(slice(take, len(batch)))
            if len(batch) == 0:
                continue
        if stop_after is not None:
            room = stop_after - fed
            if room <= 0:
                return fed
            if len(batch) > room:
                sink.record_batch(batch.select(slice(0, room)))
                return stop_after
        sink.record_batch(batch)
        fed += len(batch)
    return fed


@pytest.fixture(scope="module")
def events():
    return _generate_events()


@pytest.fixture()
def clean_artifact(tmp_path, events):
    path = str(tmp_path / "clean.opstream")
    with StreamFileSink(path, memory_budget_bytes=BUDGET) as sink:
        _feed(sink, events.events)
    return path


def _crashed_artifact(tmp_path, events, stop_after, name="crashed"):
    """Write a checkpointing artifact, 'crash' after N rows, abort."""
    path = str(tmp_path / f"{name}.opstream")
    sink = StreamFileSink(path, memory_budget_bytes=BUDGET, checkpoint=True)
    _feed(sink, events.events, stop_after=stop_after)
    sink.abort()  # no footer: exactly what a dead process leaves
    return path


class TestAbort:
    def test_abort_leaves_no_footer(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        with pytest.raises(StreamFormatError, match="truncated|footer"):
            StreamReader(path)

    def test_abort_after_close_is_noop(self, tmp_path, events):
        path = str(tmp_path / "a.opstream")
        sink = StreamFileSink(path, memory_budget_bytes=BUDGET)
        _feed(sink, events.events)
        sink.close()
        sink.abort()
        with StreamReader(path) as reader:
            assert reader.total_rows == events.rows

    def test_close_unlinks_checkpoint_sidecar(self, tmp_path, events):
        path = str(tmp_path / "a.opstream")
        sink = StreamFileSink(path, memory_budget_bytes=BUDGET,
                              checkpoint=True)
        _feed(sink, events.events)
        assert os.path.exists(path + CHECKPOINT_SUFFIX)
        sink.close()
        assert not os.path.exists(path + CHECKPOINT_SUFFIX)

    def test_abort_keeps_sidecar_for_salvage(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        assert os.path.exists(path + CHECKPOINT_SUFFIX)


class TestSalvage:
    def test_salvage_keeps_only_full_verified_chunks(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        salvaged = salvage_stream(path)
        assert not salvaged.complete
        assert salvaged.rows > 0
        rows_per_chunk = salvaged.rows_per_chunk
        assert all(e["rows"] == rows_per_chunk for e in salvaged.index)
        assert salvaged.rows <= 100

    def test_salvage_without_sidecar_scans_identically(self, tmp_path,
                                                       events):
        path = _crashed_artifact(tmp_path, events, stop_after=150)
        via_sidecar = salvage_stream(path)
        os.unlink(path + CHECKPOINT_SUFFIX)
        via_scan = salvage_stream(path)
        assert via_scan.rows == via_sidecar.rows
        assert via_scan.index == via_sidecar.index
        assert via_scan.data_end == via_sidecar.data_end

    def test_salvage_ignores_lying_sidecar(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=150)
        sidecar = path + CHECKPOINT_SUFFIX
        state = json.loads(open(sidecar, encoding="utf-8").read())
        state["rows"] += 32  # claims a chunk the file never got
        state["chunks"] += 1
        state["index"].append(dict(state["index"][-1]))
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(state))
        salvaged = salvage_stream(path)  # falls back to the real bytes
        os.unlink(sidecar)
        assert salvaged.rows == salvage_stream(path).rows

    def test_salvage_replay_reports_boundary_user(self, tmp_path, events):
        path = _crashed_artifact(tmp_path, events, stop_after=200)
        salvaged = salvage_stream(path)
        log = UsageLog()
        summary = salvaged.replay(log)
        assert summary.rows == salvaged.rows == len(log.operations)
        assert summary.last_user == max(op.user_id for op in log.operations)
        boundary_rows = sum(1 for op in log.operations
                            if op.user_id == summary.last_user)
        assert summary.last_user_rows == boundary_rows

    def test_complete_artifact_salvages_complete(self, clean_artifact):
        salvaged = salvage_stream(clean_artifact)
        assert salvaged.complete

    @pytest.mark.parametrize("keep_sidecar", [True, False],
                             ids=["sidecar", "scan"])
    def test_short_tail_chunk_dropped_and_resumed(
            self, tmp_path, events, clean_artifact, monkeypatch,
            keep_sidecar):
        # Crash between the tail-chunk flush and the footer write: every
        # chunk is on disk, the last one short, and there is no footer.
        path = str(tmp_path / "tail.opstream")
        sink = StreamFileSink(path, memory_budget_bytes=BUDGET,
                              checkpoint=True)
        _feed(sink, events.events)

        def crash(writer):
            raise OSError("crashed before the footer")

        with monkeypatch.context() as patch:
            patch.setattr(StreamWriter, "_write_footer", crash)
            with pytest.raises(OSError, match="footer"):
                sink.close()
        if not keep_sidecar:
            os.unlink(path + CHECKPOINT_SUFFIX)
        with StreamReader(clean_artifact) as reader:
            tail = reader.chunk_index[-1]
            assert tail.rows < reader.rows_per_chunk
        salvaged = salvage_stream(path)
        assert not salvaged.complete
        assert len(salvaged.index) == tail.index  # the short chunk is gone
        assert salvaged.data_end == tail.offset
        resumed, _ = resume_stream_sink(path, memory_budget_bytes=BUDGET)
        _feed(resumed, events.events, skip_rows=salvaged.rows,
              skip_sessions=salvaged.sessions)
        resumed.close()
        assert open(path, "rb").read() == open(clean_artifact, "rb").read()


class TestResume:
    @pytest.mark.parametrize("stop_after", [40, 100, 333])
    def test_resumed_file_is_bit_for_bit(self, tmp_path, events,
                                         clean_artifact, stop_after):
        path = _crashed_artifact(tmp_path, events, stop_after,
                                 name=f"c{stop_after}")
        sink, salvaged = resume_stream_sink(
            path, memory_budget_bytes=BUDGET)
        assert sink is not None and salvaged is not None
        # Continue with the remainder of the identical event stream.
        _feed(sink, events.events, skip_rows=salvaged.rows,
              skip_sessions=salvaged.sessions)
        sink.close()
        clean = open(clean_artifact, "rb").read()
        assert open(path, "rb").read() == clean
        assert not os.path.exists(path + CHECKPOINT_SUFFIX)

    def test_resume_nothing_salvageable_starts_fresh(self, tmp_path, events,
                                                     clean_artifact):
        # Crash before the first flush: zero full chunks on disk.
        path = _crashed_artifact(tmp_path, events, stop_after=5, name="tiny")
        sink, salvaged = resume_stream_sink(path, memory_budget_bytes=BUDGET)
        assert salvaged is None  # fresh start
        _feed(sink, events.events)
        sink.close()
        assert open(path, "rb").read() == open(clean_artifact, "rb").read()

    def test_resume_complete_artifact_returns_no_sink(self, clean_artifact):
        sink, salvaged = resume_stream_sink(
            clean_artifact, memory_budget_bytes=BUDGET)
        assert sink is None
        assert salvaged is not None and salvaged.complete

    def test_resume_budget_mismatch_starts_fresh(self, tmp_path, events,
                                                 clean_artifact):
        # A different budget means different chunk boundaries: reusing
        # salvaged chunks would break bit-identity, so start over.
        path = _crashed_artifact(tmp_path, events, stop_after=100)
        sink, salvaged = resume_stream_sink(
            path, memory_budget_bytes=BUDGET * 2)
        assert salvaged is None
        sink.abort()

    def test_writer_resume_rejects_complete(self, clean_artifact):
        salvaged = salvage_stream(clean_artifact)
        with pytest.raises(StreamFormatError, match="complete"):
            StreamWriter.resume(salvaged)

    def test_writer_resume_rejects_metadata_mismatch(self, tmp_path, events):
        path = str(tmp_path / "m.opstream")
        sink = StreamFileSink(path, memory_budget_bytes=BUDGET,
                              metadata={"run": 1}, checkpoint=True)
        _feed(sink, events.events, stop_after=100)
        sink.abort()
        salvaged = salvage_stream(path)
        with pytest.raises(StreamFormatError, match="metadata"):
            StreamWriter.resume(salvaged, metadata={"run": 2})


class TestVerify:
    def test_clean_artifact_verifies(self, clean_artifact, events):
        report = verify_stream(clean_artifact)
        assert report.ok and report.complete
        assert report.chunks_ok == report.chunks > 0
        assert report.rows == events.rows
        assert report.errors == []
        kv = report.as_kv()
        assert kv["verdict"] == "ok"
        assert kv["chunks ok"] == f"{report.chunks}/{report.chunks}"

    def test_bitflip_in_chunk_is_localized(self, tmp_path, clean_artifact):
        data = bytearray(open(clean_artifact, "rb").read())
        data[len(data) // 2] ^= 0xFF
        path = str(tmp_path / "flipped.opstream")
        open(path, "wb").write(bytes(data))
        report = verify_stream(path)
        assert not report.ok
        assert report.chunks_ok == report.chunks - 1
        assert any("chunk" in e for e in report.errors)
        assert report.as_kv()["verdict"] == "CORRUPT"

    def test_truncation_reported(self, tmp_path, clean_artifact, events):
        data = open(clean_artifact, "rb").read()
        path = str(tmp_path / "cut.opstream")
        open(path, "wb").write(data[: int(len(data) * 0.6)])
        report = verify_stream(path)
        assert not report.ok and not report.complete
        assert report.rows < events.rows
        assert report.errors

    def test_aborted_artifact_not_ok_but_chunks_verify(self, tmp_path,
                                                       events):
        path = _crashed_artifact(tmp_path, events, stop_after=150)
        report = verify_stream(path)
        assert not report.ok and not report.complete
        assert report.chunks_ok == report.chunks > 0
