"""Unit tests for progress formatting, the meter, and the queue sender."""

import io
from types import SimpleNamespace

from repro.obs import ProgressMeter, QueueProgressSender
from repro.obs.progress import _eta, _si, format_progress_line


class TestFormatting:
    def test_si_units(self):
        assert _si(950) == "950"
        assert _si(8_210) == "8.21k"
        assert _si(59_400_000) == "59.4M"
        assert _si(2_000_000_000) == "2G"

    def test_eta_units(self):
        assert _eta(42) == "42s"
        assert _eta(190) == "3m10s"
        assert _eta(7500) == "2h05m"

    def test_line_with_total_mid_run_has_eta(self):
        line = format_progress_line("fleet", 50, 100, 5000, 10.0)
        assert line.startswith("fleet: 50/100 users (50%)")
        assert "5k ops" in line
        assert "5.0 users/s" in line
        assert "eta 10s" in line

    def test_line_at_completion_drops_eta(self):
        line = format_progress_line("run", 100, 100, 1000, 10.0)
        assert "(100%)" in line
        assert "eta" not in line

    def test_line_without_total(self):
        line = format_progress_line("run", 7, None, 70, 1.0)
        assert line.startswith("run: 7 users")
        assert "eta" not in line

    def test_zero_elapsed_does_not_divide_by_zero(self):
        assert "users/s" in format_progress_line("run", 1, 10, 1, 0.0)


class TestProgressMeter:
    def _meter(self, **kwargs):
        stream = io.StringIO()
        kwargs.setdefault("interval_s", 0.0)
        return ProgressMeter(stream=stream, **kwargs), stream

    def test_update_paints_one_refreshing_line(self):
        meter, stream = self._meter(total_users=10, label="sim")
        meter.update(3, 300)
        out = stream.getvalue()
        assert out.startswith("\r\x1b[K")
        assert "sim: 3/10 users" in out

    def test_shards_aggregate(self):
        meter, stream = self._meter(total_users=20)
        meter.update_shard(0, 5, 100)
        meter.update_shard(1, 7, 200)
        assert "12/20 users" in stream.getvalue()
        assert "300 ops" in stream.getvalue()

    def test_finish_ends_with_newline(self):
        meter, stream = self._meter(total_users=4)
        meter.update(4, 40)
        meter.finish()
        assert stream.getvalue().endswith("\n")

    def test_finish_without_paints_still_clean(self):
        stream = io.StringIO()
        meter = ProgressMeter(total_users=4, stream=stream, interval_s=0.0)
        meter.finish()
        assert stream.getvalue().endswith("\n")

    def test_throttling_skips_repaints(self):
        meter, stream = self._meter(total_users=10)
        meter.update(1, 10)
        meter.interval_s = 3600.0  # throttle everything after the first paint
        meter.update(2, 20)
        assert stream.getvalue().count("\r") == 1

    def test_first_update_paints_on_fresh_host(self, monkeypatch):
        # monotonic() counts from boot: on a host up for less than the
        # throttle interval the first paint must still happen.
        monkeypatch.setattr("repro.obs.progress.time",
                            SimpleNamespace(monotonic=lambda: 0.001))
        stream = io.StringIO()
        meter = ProgressMeter(total_users=4, stream=stream, interval_s=0.5)
        meter.update(1, 10)
        assert stream.getvalue().count("\r") == 1

    def test_closed_stream_goes_quiet(self):
        stream = io.StringIO()
        meter = ProgressMeter(total_users=4, stream=stream, interval_s=0.0)
        stream.close()
        meter.update(1, 1)
        meter.finish()


class FakeQueue:
    def __init__(self, full=False):
        self.items = []
        self.full = full

    def put_nowait(self, item):
        if self.full:
            raise RuntimeError("queue full")
        self.items.append(item)


class TestQueueProgressSender:
    def test_update_sends_shard_sample(self):
        queue = FakeQueue()
        sender = QueueProgressSender(3, queue, min_interval_s=0.0)
        sender.update(5, 500)
        assert queue.items == [(3, 5, 500, False)]

    def test_throttle_drops_rapid_updates(self):
        queue = FakeQueue()
        sender = QueueProgressSender(0, queue, min_interval_s=3600.0)
        sender.update(1, 10)
        sender.update(2, 20)
        assert len(queue.items) == 1

    def test_first_sample_sent_on_fresh_host(self, monkeypatch):
        monkeypatch.setattr("repro.obs.progress.time",
                            SimpleNamespace(monotonic=lambda: 0.001))
        queue = FakeQueue()
        sender = QueueProgressSender(0, queue, min_interval_s=0.25)
        sender.update(1, 10)
        sender.update(2, 20)
        assert queue.items == [(0, 1, 10, False)]

    def test_finish_bypasses_throttle_and_marks_done(self):
        queue = FakeQueue()
        sender = QueueProgressSender(1, queue, min_interval_s=3600.0)
        sender.update(1, 10)
        sender.finish(9, 900)
        assert queue.items[-1] == (1, 9, 900, True)

    def test_full_queue_drops_silently(self):
        sender = QueueProgressSender(0, FakeQueue(full=True),
                                     min_interval_s=0.0)
        sender.update(1, 10)
        sender.finish(1, 10)
