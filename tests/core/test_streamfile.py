"""On-disk op-stream artifacts: format round trips, corruption, merge.

The format's contract has three legs, each tested here:

* **lossless**: any event stream — arbitrary paths (tabs, newlines,
  non-ASCII), int64 extremes, empty batches, think columns, sessions on
  exact chunk boundaries — reads back identical, at any chunk size
  (property-based, hypothesis);
* **loud**: any truncation or single-bit flip raises a clean
  :class:`StreamFormatError`, never garbage records (every frame is
  CRC-framed, the tail is cross-checked);
* **deterministic**: chunk boundaries depend only on the budget, so a
  replay into a same-budget sink reproduces the file byte for byte, and
  a k-way shard merge is bit-identical to the 1-shard artifact.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OP_KIND_NAMES,
    OpBatch,
    OpRecord,
    SessionRecord,
    StreamFileSink,
    StreamFormatError,
    StreamReader,
    TeeSink,
    UsageLog,
    WorkloadGenerator,
    iter_batches,
    merge_stream_files,
    paper_workload_spec,
)
from repro.core.streamfile import (
    ROW_BYTES,
    StreamWriter,
    concat_batches,
    rows_per_chunk_for,
)
from repro.fleet.merge import ShardAccumulator

# ``think`` rows live in the optional think column, never in records.
RECORD_KINDS = tuple(k for k in OP_KIND_NAMES if k != "think")

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Deliberately hostile strings: separator bytes, escapes, non-ASCII.
NASTY_TEXT = st.text(
    alphabet=st.sampled_from(
        list("abz/._-\\,\t\n\r") + ["é", "ß", "日", "🐍", " "]
    ),
    max_size=12,
)

op_records = st.builds(
    OpRecord,
    user_id=st.integers(min_value=0, max_value=INT64_MAX),
    user_type=NASTY_TEXT,
    session_id=st.integers(min_value=0, max_value=INT64_MAX),
    op=st.sampled_from(RECORD_KINDS),
    path=NASTY_TEXT,
    category_key=NASTY_TEXT,
    size=st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    start_us=st.floats(allow_nan=False, allow_infinity=False),
    response_us=st.floats(allow_nan=False, allow_infinity=False),
)

session_records = st.builds(
    SessionRecord,
    user_id=st.integers(min_value=0, max_value=INT64_MAX),
    user_type=NASTY_TEXT,
    session_id=st.integers(min_value=0, max_value=INT64_MAX),
    start_us=st.floats(allow_nan=False, allow_infinity=False),
    end_us=st.floats(allow_nan=False, allow_infinity=False),
    files_referenced=st.integers(min_value=0, max_value=INT64_MAX),
    bytes_accessed=st.integers(min_value=0, max_value=INT64_MAX),
    file_bytes_referenced=st.integers(min_value=0, max_value=INT64_MAX),
    # Empty category keys are dropped by the oplog line format itself.
    categories=st.lists(NASTY_TEXT.filter(lambda s: s),
                        max_size=3).map(tuple),
)


@st.composite
def op_batches(draw, max_rows=8):
    """An arbitrary OpBatch, sometimes empty, sometimes with think."""
    records = draw(st.lists(op_records, min_size=0, max_size=max_rows))
    batch = OpBatch.from_records(records)
    if draw(st.booleans()):
        batch.think_us = np.array(
            draw(st.lists(
                st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
                min_size=len(records), max_size=len(records),
            )),
            dtype=np.int64,
        )
    return batch


@st.composite
def event_streams(draw):
    """An interleaving of batches and session summaries."""
    return draw(st.lists(
        st.one_of(op_batches(), session_records), min_size=0, max_size=6))


def write_events(path, events, rows_per_chunk, metadata=None):
    with StreamWriter(path, rows_per_chunk, metadata=metadata) as writer:
        for event in events:
            if isinstance(event, SessionRecord):
                writer.add_session(event)
            else:
                writer.add_batch(event)
    return path


def flatten_events(events):
    """(records, think-or-None, sessions-in-order) ground truth."""
    batches = [e for e in events if not isinstance(e, SessionRecord)]
    batches = [b for b in batches if len(b)]
    records = [r for b in batches for r in b.to_records()]
    think = None
    if batches and all(b.think_us is not None for b in batches):
        think = np.concatenate([b.think_us for b in batches])
    sessions = [e for e in events if isinstance(e, SessionRecord)]
    return records, think, sessions


def read_back(path):
    """(records, think-or-None, sessions) as the reader sees them."""
    with StreamReader(path) as reader:
        chunks = list(reader.iter_chunks())
    batches = [c.batch for c in chunks if len(c.batch)]
    records = [r for b in batches for r in b.to_records()]
    think = None
    if batches and all(b.think_us is not None for b in batches):
        think = np.concatenate([b.think_us for b in batches])
    sessions = [rec for c in chunks for _, rec in c.sessions]
    return records, think, sessions


class TestPropertyRoundTrip:
    """Leg one: arbitrary event streams survive the disk byte-exactly."""

    @given(events=event_streams(), rows_per_chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identical(self, tmp_path_factory, events,
                                  rows_per_chunk):
        path = str(tmp_path_factory.mktemp("rt") / "a.opstream")
        write_events(path, events, rows_per_chunk)
        want_records, want_think, want_sessions = flatten_events(events)
        got_records, got_think, got_sessions = read_back(path)
        assert got_records == want_records
        assert got_sessions == want_sessions
        if want_think is None:
            assert got_think is None
        else:
            assert got_think is not None
            assert np.array_equal(got_think, want_think)

    @given(events=event_streams())
    @settings(max_examples=25, deadline=None)
    def test_chunk_size_never_changes_content(self, tmp_path_factory,
                                              events):
        tmp = tmp_path_factory.mktemp("cs")
        views = []
        for rows_per_chunk in (1, 3, 1000):
            path = str(tmp / f"c{rows_per_chunk}.opstream")
            write_events(path, events, rows_per_chunk)
            views.append(read_back(path))
        for records, think, sessions in views[1:]:
            assert records == views[0][0]
            assert sessions == views[0][2]
            if views[0][1] is None:
                assert think is None
            else:
                assert np.array_equal(think, views[0][1])

    @given(events=event_streams(), rows_per_chunk=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_footer_counts_match(self, tmp_path_factory, events,
                                 rows_per_chunk):
        path = str(tmp_path_factory.mktemp("fc") / "a.opstream")
        write_events(path, events, rows_per_chunk)
        records, _, sessions = flatten_events(events)
        with StreamReader(path) as reader:
            assert reader.total_rows == len(records)
            assert reader.total_sessions == len(sessions)
            assert sum(c.rows for c in reader.chunk_index) == len(records)


def small_artifact(path, rows_per_chunk=3):
    """A fixed multi-chunk artifact with sessions for corruption tests."""
    records = [
        OpRecord(u, "heavy", s, op, f"/u{u}/f{i}", "user:rdonly",
                 64 * i, float(i), 1.5)
        for i, (u, s, op) in enumerate(
            (u, s, op)
            for u in (0, 1)
            for s in (0, 1)
            for op in ("open", "read", "write", "close")
        )
    ]
    sessions = [
        SessionRecord(u, "heavy", s, 0.0, 9.0, 2, 128, 256, ("user:rdonly",))
        for u in (0, 1) for s in (0, 1)
    ]
    with StreamWriter(path, rows_per_chunk) as writer:
        for u in (0, 1):
            for s in (0, 1):
                batch = OpBatch.from_records(
                    [r for r in records if r.user_id == u
                     and r.session_id == s])
                writer.add_batch(batch)
                writer.add_session(sessions[2 * u + s])
    return records, sessions


def consume_fully(path):
    """Open and decode everything (corrupt files must raise here)."""
    with StreamReader(path) as reader:
        sink = ShardAccumulator()
        reader.replay(sink)
        return sink.tally


class TestCorruptionIsLoud:
    """Leg two: damaged files raise StreamFormatError, never bad data."""

    def test_truncation_at_every_length(self, tmp_path):
        cut = tmp_path / "cut.opstream"
        small_artifact(str(cut))
        size = cut.stat().st_size
        fd = os.open(str(cut), os.O_WRONLY)
        try:
            # Every proper prefix must be rejected: shave the file down
            # in place (step keeps it fast but still crosses every
            # frame boundary).
            for n in range(size - 1, -1, -7):
                os.ftruncate(fd, n)
                with pytest.raises(StreamFormatError):
                    consume_fully(str(cut))
        finally:
            os.close(fd)

    def test_single_bit_flip_at_every_byte(self, tmp_path):
        flipped = tmp_path / "flip.opstream"
        # One full chunk plus a short tail chunk keeps the sweep fast
        # while still crossing every structural region (magic, version,
        # header, both frame kinds, footer, tail).
        small_artifact(str(flipped), rows_per_chunk=12)
        blob = flipped.read_bytes()
        fd = os.open(str(flipped), os.O_WRONLY)
        try:
            for n in range(len(blob)):
                # Alternate low/high bit: every byte is hit, both ends.
                bit = 0x01 if n % 2 == 0 else 0x80
                os.pwrite(fd, bytes([blob[n] ^ bit]), n)
                with pytest.raises(StreamFormatError):
                    consume_fully(str(flipped))
                os.pwrite(fd, blob[n:n + 1], n)
        finally:
            os.close(fd)

    def test_unclosed_writer_is_rejected(self, tmp_path):
        path = str(tmp_path / "open.opstream")
        writer = StreamWriter(path, 4)
        writer.add_batch(OpBatch.from_records(
            [OpRecord(0, "t", 0, "open", "/f", "", 0, 0.0, 1.0)]))
        writer._stream.flush()
        with pytest.raises(StreamFormatError, match="tail|footer"):
            StreamReader(path)
        writer.close()
        consume_fully(path)

    def test_missing_file_and_non_stream_file(self, tmp_path):
        with pytest.raises(StreamFormatError, match="cannot open"):
            StreamReader(str(tmp_path / "nope.opstream"))
        other = tmp_path / "other.bin"
        other.write_bytes(b"this is not an op stream, not even close....")
        with pytest.raises(StreamFormatError, match="magic"):
            StreamReader(str(other))


class TestSinkBudget:
    """StreamFileSink never buffers more than its memory budget."""

    def test_rows_per_chunk_matches_budget(self):
        assert rows_per_chunk_for(ROW_BYTES * 10) == 10
        assert rows_per_chunk_for(1) == 1  # floor, never zero
        assert rows_per_chunk_for(ROW_BYTES - 1) == 1

    def test_buffer_never_exceeds_budget(self, tmp_path):
        path = str(tmp_path / "budget.opstream")
        budget = ROW_BYTES * 8
        flushes = []
        with StreamFileSink(path, memory_budget_bytes=budget) as sink:
            assert sink.rows_per_chunk == 8
            inner = sink._writer._flush_chunk

            def counting_flush(take):
                flushes.append(take)
                inner(take)

            sink._writer._flush_chunk = counting_flush
            records, _ = small_artifact(str(tmp_path / "src.opstream"))
            for record in records:
                sink.record_op(record)
                # The budget bound: a full chunk awaiting its flush
                # trigger plus at most one scalar block in flight.
                assert (sink.buffered_rows
                        <= sink.rows_per_chunk + sink._scalar_block)
        # Every non-final flush is exactly one full chunk.
        assert all(take == 8 for take in flushes[:-1])
        assert sum(flushes) == len(records)

    def test_tiny_budget_one_row_chunks(self, tmp_path):
        src = str(tmp_path / "src.opstream")
        records, sessions = small_artifact(src)
        path = str(tmp_path / "tiny.opstream")
        with StreamFileSink(path, memory_budget_bytes=1) as sink:
            for record in records:
                sink.record_op(record)
            for record in sessions:
                sink.record_session(record)
        with StreamReader(path) as reader:
            assert reader.rows_per_chunk == 1
            assert reader.total_rows == len(records)
            got = [r for b in reader.iter_batches() for r in b.to_records()]
        assert got == records


class TestDeterminism:
    """Leg three: replay and merge reproduce artifacts byte for byte."""

    def run_spec(self, path, budget, user_ids=None):
        spec = paper_workload_spec(n_users=4, total_files=150, seed=23)
        with StreamFileSink(str(path), memory_budget_bytes=budget) as sink:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend="fast-columnar", log=sink,
                user_ids=user_ids,
            )
        return path.read_bytes()

    @pytest.mark.parametrize("budget", [ROW_BYTES * 100, 1 << 20])
    def test_replay_reproduces_file(self, tmp_path, budget):
        original = self.run_spec(tmp_path / "a.opstream", budget)
        copy = tmp_path / "b.opstream"
        with StreamReader(str(tmp_path / "a.opstream")) as reader:
            with StreamFileSink(str(copy), memory_budget_bytes=budget) as s:
                reader.replay(s)
        assert copy.read_bytes() == original

    def test_replay_matches_in_ram_log(self, tmp_path):
        path = str(tmp_path / "a.opstream")
        spec = paper_workload_spec(n_users=3, total_files=150, seed=29)
        direct = UsageLog()
        with StreamFileSink(path, memory_budget_bytes=ROW_BYTES * 64) as s:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2, backend="fast-columnar",
                log=TeeSink(direct, s),
            )
        replayed = UsageLog()
        with StreamReader(path) as reader:
            reader.replay(replayed)
        assert replayed.operations == direct.operations
        assert replayed.sessions == direct.sessions

    @pytest.mark.parametrize("shards", [2, 3])
    def test_merge_bit_identical_to_single_shard(self, tmp_path, shards):
        budget = ROW_BYTES * 100
        whole = self.run_spec(tmp_path / "whole.opstream", budget)
        paths = []
        for shard in range(shards):
            path = tmp_path / f"s{shard}.opstream"
            self.run_spec(path, budget,
                          user_ids=[u for u in range(4)
                                    if u % shards == shard])
            paths.append(str(path))
        merged = tmp_path / "merged.opstream"
        # Shard order must not matter: feed them reversed.
        merge_stream_files(str(merged), list(reversed(paths)))
        assert merged.read_bytes() == whole

    def test_merge_rejects_overlapping_users(self, tmp_path):
        budget = ROW_BYTES * 100
        a = tmp_path / "a.opstream"
        b = tmp_path / "b.opstream"
        self.run_spec(a, budget, user_ids=[0, 1])
        self.run_spec(b, budget, user_ids=[1, 2])
        out = str(tmp_path / "bad.opstream")
        with pytest.raises(StreamFormatError, match="disjoint"):
            merge_stream_files(out, [str(a), str(b)])
        assert not os.path.exists(out)  # no half-written artifact

    def test_merge_rejects_interleaved_users(self, tmp_path):
        # A DES-style artifact interleaves users on the shared clock;
        # the merge must refuse it loudly rather than mis-chunk.
        path = str(tmp_path / "des.opstream")
        with StreamWriter(path, 4) as writer:
            for user in (0, 1, 0):
                writer.add_batch(OpBatch.from_records([
                    OpRecord(user, "t", 0, "read", "/f", "", 8, 1.0, 1.0),
                ]))
        out = str(tmp_path / "bad.opstream")
        with pytest.raises(StreamFormatError, match="user-contiguous"):
            merge_stream_files(out, [path])
        assert not os.path.exists(out)

    def test_merge_rejects_mismatched_budgets(self, tmp_path):
        a = tmp_path / "a.opstream"
        b = tmp_path / "b.opstream"
        self.run_spec(a, ROW_BYTES * 100, user_ids=[0])
        self.run_spec(b, ROW_BYTES * 200, user_ids=[1])
        with pytest.raises(StreamFormatError, match="budget"):
            merge_stream_files(str(tmp_path / "bad.opstream"),
                               [str(a), str(b)])


class TestReaderSlicing:
    """The footer index slices by user and time without full scans."""

    @pytest.fixture()
    def artifact(self, tmp_path):
        path = str(tmp_path / "a.opstream")
        spec = paper_workload_spec(n_users=4, total_files=150, seed=31)
        with StreamFileSink(path, memory_budget_bytes=ROW_BYTES * 50) as s:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=1, backend="fast-columnar", log=s)
        return path

    def test_user_filter_matches_mask(self, artifact):
        everything = concat_batches(list(iter_batches(artifact)))
        for users in ([0], [1, 3], [99]):
            got = sum(len(b) for b in iter_batches(artifact, users=users))
            want = int(np.isin(everything.user_ids,
                               np.array(users)).sum())
            assert got == want

    def test_time_window_matches_mask(self, artifact):
        everything = concat_batches(list(iter_batches(artifact)))
        hi = float(np.quantile(everything.start_us, 0.4))
        got = sum(len(b)
                  for b in iter_batches(artifact, time_range=(0.0, hi)))
        want = int(((everything.start_us >= 0.0)
                    & (everything.start_us < hi)).sum())
        assert 0 < got == want

    def test_index_skips_chunks(self, artifact):
        with StreamReader(artifact) as reader:
            assert len(reader.chunk_index) > 1
            last_user_chunks = [
                c for c in reader.chunk_index if c.rows and c.user_hi >= 3
            ]
            visited = list(reader.iter_chunks(users=[3]))
            assert len(visited) == len(last_user_chunks)
            assert len(visited) < len(reader.chunk_index)


class TestEmptyBatches:
    """Degenerate containers stay well-typed end to end."""

    def test_from_records_empty_round_trip(self, tmp_path):
        batch = OpBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []
        assert batch.kinds.dtype == np.int8
        assert batch.user_ids.dtype == np.int64
        path = str(tmp_path / "empty.opstream")
        with StreamWriter(path, 4) as writer:
            writer.add_batch(batch)
        with StreamReader(path) as reader:
            assert reader.total_rows == 0
            assert list(reader.iter_batches()) == []

    def test_concat_batches_empty_inputs(self):
        assert len(concat_batches([])) == 0
        assert len(concat_batches([OpBatch.from_records([])])) == 0

    def test_empty_record_batch_accepted_by_every_sink(self, tmp_path):
        empty = OpBatch.from_records([])
        log = UsageLog()
        tally = ShardAccumulator()
        path = str(tmp_path / "a.opstream")
        with StreamFileSink(path, memory_budget_bytes=1 << 16) as sink:
            for target in (log, tally, sink, TeeSink(log, tally, sink)):
                target.record_batch(empty)
        assert log.operations == []
        assert tally.tally.operations == 0
        with StreamReader(path) as reader:
            assert reader.total_rows == 0

    @pytest.mark.parametrize("backend", ["fast-columnar", "nfs"])
    def test_time_limit_zero_yields_empty_artifact(self, tmp_path, backend):
        # time_limit_us=0 truncates every session before its first op;
        # both backends must produce a clean, empty artifact.
        spec = paper_workload_spec(n_users=2, total_files=100, seed=5)
        path = tmp_path / "zero.opstream"
        direct = UsageLog()
        with StreamFileSink(str(path), memory_budget_bytes=1 << 16) as sink:
            WorkloadGenerator(spec).run_simulated(
                sessions_per_user=1, backend=backend,
                log=TeeSink(direct, sink), time_limit_us=0,
            )
        assert direct.operations == []
        assert direct.sessions == []
        with StreamReader(str(path)) as reader:
            assert reader.total_rows == 0
            assert reader.total_sessions == 0
            assert list(reader.iter_batches()) == []


class _CountingBatchSink(UsageLog):
    """Batch-aware sink that counts how the rows arrived."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def record_batch(self, batch):
        self.batches.append(batch)
        super().record_batch(batch)


class _ScalarOnlySink:
    """No ``record_batch`` at all — must be fed through the bridge."""

    def __init__(self):
        self.ops = []
        self.sessions = []

    def record_op(self, record):
        self.ops.append(record)

    def record_session(self, record):
        self.sessions.append(record)


class _ConversionCountingBatch:
    """OpBatch stand-in that counts ``to_records`` conversions."""

    def __init__(self, batch):
        self._batch = batch
        self.conversions = 0

    def __len__(self):
        return len(self._batch)

    def to_records(self):
        self.conversions += 1
        return self._batch.to_records()


class TestTeeSinkBatchPath:
    def _batch(self, n=5):
        records = [
            OpRecord(user_id=1, user_type="t", session_id=0, op="read",
                     path=f"/f{i}", category_key="c", size=10 * i,
                     start_us=float(i), response_us=1.0)
            for i in range(n)
        ]
        return OpBatch.from_records(records)

    def test_batch_aware_sinks_receive_the_batch_object(self):
        a, b = _CountingBatchSink(), _CountingBatchSink()
        batch = self._batch()
        TeeSink(a, b).record_batch(batch)
        assert a.batches == [batch] and b.batches == [batch]
        assert a.operations == batch.to_records()

    def test_scalar_only_sink_gets_bridged_rows(self):
        batch_aware, scalar = _CountingBatchSink(), _ScalarOnlySink()
        batch = self._batch()
        TeeSink(batch_aware, scalar).record_batch(batch)
        assert batch_aware.batches == [batch]
        assert scalar.ops == batch.to_records()

    def test_bridge_converts_once_for_many_scalar_sinks(self):
        scalars = [_ScalarOnlySink() for _ in range(3)]
        batch = _ConversionCountingBatch(self._batch())
        TeeSink(*scalars).record_batch(batch)
        assert batch.conversions == 1
        expected = batch.to_records()
        for sink in scalars:
            assert sink.ops == expected

    def test_all_batch_aware_never_converts(self):
        class BatchOnly:
            def __init__(self):
                self.batches = []

            def record_batch(self, batch):
                self.batches.append(batch)

        sinks = [BatchOnly(), BatchOnly()]
        batch = _ConversionCountingBatch(self._batch())
        TeeSink(*sinks).record_batch(batch)
        assert batch.conversions == 0
        assert all(s.batches == [batch] for s in sinks)

    def test_sessions_fan_out_to_every_sink(self):
        a, b = _CountingBatchSink(), _ScalarOnlySink()
        session = SessionRecord(
            user_id=1, user_type="t", session_id=0, start_us=0.0,
            end_us=5.0, files_referenced=1, bytes_accessed=10,
            file_bytes_referenced=10, categories=("c",))
        TeeSink(a, b).record_session(session)
        assert a.sessions == [session]
        assert b.sessions == [session]

    def test_scalar_ops_fan_out_to_every_sink(self):
        a, b = _ScalarOnlySink(), _CountingBatchSink()
        record = self._batch(1).to_records()[0]
        TeeSink(a, b).record_op(record)
        assert a.ops == [record] and b.operations == [record]
