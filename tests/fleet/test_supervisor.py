"""Fault-tolerant fleet execution: retry, quarantine, chaos injection.

Every test leans on the determinism dividend: a retried shard is a pure
function of (spec, seed, shard range), so recovery is asserted as
**bit-for-bit identity** with the fault-free run — not merely "it
finished".
"""

import filecmp
import os

import pytest

from repro.core import SpecError
from repro.faults import (
    KILL_EXIT_CODE,
    FaultError,
    FaultSpec,
    parse_fault,
    random_faults,
)
from repro.fleet import FleetConfig, FleetPartialError, run_fleet
from repro.fleet.supervisor import backoff_delay

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")

BUDGET = 4096  # 57-row chunks: many flushes even at test scale


def _config(tmp_path, name="out.opstream", **overrides):
    base = dict(scenario="mixed-campus", users=8, shards=2, workers=2,
                seed=7, total_files=120, backend="fast-columnar",
                out_stream=str(tmp_path / name), stream_budget_bytes=BUDGET,
                retry_backoff_s=0.0)
    base.update(overrides)
    return FleetConfig(**base)


@pytest.fixture()
def clean(tmp_path):
    """The fault-free reference artifact + result."""
    result = run_fleet(_config(tmp_path, name="clean.opstream"))
    return result


class TestBackoffDelay:
    def test_schedule_doubles_from_the_second_attempt(self):
        b = 0.25
        assert [backoff_delay(b, attempt) for attempt in range(1, 6)] == [
            0.0, b, 2 * b, 4 * b, 8 * b]

    def test_capped_at_thirty_seconds(self):
        assert backoff_delay(0.25, 9) == 30.0  # 0.25 * 2**7 = 32
        assert backoff_delay(0.25, 8) == 16.0
        assert backoff_delay(10.0, 40) == 30.0

    def test_zero_backoff_never_waits(self):
        assert backoff_delay(0.0, 5) == 0.0


class TestFaultSpecs:
    def test_parse_round_trip(self):
        spec = parse_fault("kill:shard=0,row=120")
        assert spec == FaultSpec(kind="kill", shard=0, row=120)
        assert parse_fault(spec.describe()) == spec

    def test_parse_all_kinds(self):
        assert parse_fault("stall:shard=1,row=5,seconds=2.5").seconds == 2.5
        assert parse_fault("enospc:shard=0,chunk=3").chunk == 3
        assert parse_fault("bitflip:shard=2").kind == "bitflip"
        assert parse_fault("error:shard=0,row=9,attempt=2").attempt == 2

    @pytest.mark.parametrize("text", [
        "explode:shard=0",          # unknown kind
        "kill:shard=0",             # kill needs a row
        "kill:row=5",               # every fault needs a shard
        "enospc:shard=0",           # enospc needs a chunk
        "kill:shard=0,row=0",       # row must be >= 1
        "kill:shard=0,bogus=1",     # unknown field
        "kill:shard=zero,row=1",    # non-integer value
        "stall:shard=0,row=1,seconds=0",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(FaultError):
            parse_fault(text)

    def test_random_faults_are_deterministic(self):
        a = random_faults(5, n_shards=3, max_row=100, count=4,
                          kinds=("kill", "error"))
        b = random_faults(5, n_shards=3, max_row=100, count=4,
                          kinds=("kill", "error"))
        assert a == b
        assert all(f.shard < 3 for f in a)

    def test_config_rejects_out_of_range_shard(self, tmp_path):
        with pytest.raises(SpecError, match="targets shard"):
            _config(tmp_path, faults=(parse_fault("kill:shard=5,row=1"),))

    def test_config_rejects_stream_fault_without_stream(self):
        with pytest.raises(SpecError, match="needs out_stream"):
            FleetConfig(scenario="mixed-campus", users=8, shards=2,
                        faults=(parse_fault("bitflip:shard=0"),))


class TestRetryRecovery:
    """Each fault kind recovers to a byte-identical artifact."""

    def test_killed_worker_retries_byte_identical(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, faults=(parse_fault("kill:shard=0,row=40"),)))
        assert result.retries == 1
        assert not result.quarantined
        died = [f for f in result.failures if f.reason == "died"]
        assert died and str(KILL_EXIT_CODE) in died[0].detail
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)
        assert result.tally == clean.tally

    def test_enospc_inline_retry_byte_identical(self, tmp_path, clean):
        # workers=1 with a catchable fault exercises the inline retry
        # loop (no worker processes at all).
        result = run_fleet(_config(
            tmp_path, workers=1,
            faults=(parse_fault("enospc:shard=1,chunk=1"),)))
        assert result.retries == 1
        errors = [f for f in result.failures if f.reason == "error"]
        assert errors and "ENOSPC" in errors[0].detail
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_injected_error_supervised_retry(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, faults=(parse_fault("error:shard=1,row=25"),)))
        assert result.retries == 1
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_bitflip_caught_by_verify_and_retried(self, tmp_path, clean):
        # Silent corruption: the shard "succeeds", the coordinator's CRC
        # walk rejects it, and the retry runs clean.
        result = run_fleet(_config(
            tmp_path, workers=1,
            faults=(parse_fault("bitflip:shard=0"),)))
        assert result.retries == 1
        corrupt = [f for f in result.failures if f.reason == "corrupt"]
        assert corrupt
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_stalled_shard_times_out_and_retries(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, shard_timeout_s=1.0,
            faults=(parse_fault("stall:shard=0,row=10,seconds=600"),)))
        assert result.timeouts == 1
        assert result.retries == 1
        timeout = [f for f in result.failures if f.reason == "timeout"]
        assert timeout
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_second_attempt_fault_still_recovers(self, tmp_path, clean):
        faults = (parse_fault("kill:shard=0,row=40"),
                  parse_fault("kill:shard=0,row=80,attempt=2"))
        result = run_fleet(_config(tmp_path, faults=faults))
        assert result.retries == 2
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)

    def test_fault_free_run_has_no_recovery(self, clean):
        assert clean.retries == 0
        assert clean.timeouts == 0
        assert not clean.quarantined
        assert not clean.failures


class TestQuarantine:
    def _always_dies(self, max_retries):
        # One kill per attempt: the shard can never succeed.
        return tuple(
            FaultSpec(kind="kill", shard=0, row=40, attempt=attempt)
            for attempt in range(1, max_retries + 2)
        )

    def test_exhausted_retries_raise_partial(self, tmp_path):
        config = _config(tmp_path, max_retries=1,
                         faults=self._always_dies(1))
        with pytest.raises(FleetPartialError) as excinfo:
            run_fleet(config)
        result = excinfo.value.result
        assert result.quarantined == (0,)
        assert result.partial
        assert result.retries == 1
        # Shard 1 still completed: the fleet did not lose the run.
        assert [o.shard_index for o in result.outcomes] == [1]
        assert result.out_stream is None

    def test_allow_partial_returns_result(self, tmp_path, clean):
        config = _config(tmp_path, max_retries=0, allow_partial=True,
                         faults=self._always_dies(0))
        result = run_fleet(config)
        assert result.quarantined == (0,)
        # The partial artifact exists and says so in its metadata.
        from repro.core import StreamReader

        assert os.path.exists(result.out_stream)
        with StreamReader(result.out_stream) as reader:
            assert reader.metadata["partial"] is True
            assert reader.metadata["quarantined_shards"] == [0]
        # Its content is exactly the surviving shard's.
        survivor = result.outcomes[0]
        assert survivor.shard_index == 1
        assert result.tally == survivor.tally

    def test_partial_manifest_records_casualties(self, tmp_path):
        metrics_out = str(tmp_path / "manifest.json")
        config = _config(tmp_path, max_retries=0, allow_partial=True,
                         metrics_out=metrics_out,
                         faults=self._always_dies(0))
        result = run_fleet(config)
        import json

        manifest = json.loads(open(metrics_out, encoding="utf-8").read())
        assert manifest["run"]["status"] == "partial"
        assert manifest["run"]["quarantined_shards"] == [0]
        counters = manifest["metrics"]["counters"]
        assert counters["fleet.quarantined_shards"] == 1
        assert counters["fleet.retries"] == result.retries == 0


class TestRecoveryTelemetry:
    def test_manifest_counts_retries_and_reuse(self, tmp_path):
        metrics_out = str(tmp_path / "manifest.json")
        result = run_fleet(_config(
            tmp_path, metrics_out=metrics_out,
            faults=(parse_fault("kill:shard=0,row=40"),)))
        import json

        manifest = json.loads(open(metrics_out, encoding="utf-8").read())
        counters = manifest["metrics"]["counters"]
        assert counters["fleet.retries"] == 1
        assert counters["fleet.timeouts"] == 0
        assert counters["fleet.quarantined_shards"] == 0
        assert "recovery" in manifest["metrics"]["stages"]
        assert manifest["run"]["status"] == "complete"
        assert result.retries == 1

    def test_metrics_do_not_perturb_artifact(self, tmp_path, clean):
        result = run_fleet(_config(
            tmp_path, metrics_out=str(tmp_path / "m.json"),
            faults=(parse_fault("kill:shard=0,row=40"),)))
        assert filecmp.cmp(result.out_stream, clean.out_stream,
                           shallow=False)


class TestRunDirHygiene:
    def test_run_dir_swept_on_success(self, tmp_path):
        result = run_fleet(_config(tmp_path))
        assert os.path.exists(result.out_stream)
        assert not os.path.exists(result.out_stream + ".run")

    def test_run_dir_swept_on_quarantine_by_default(self, tmp_path):
        config = _config(tmp_path, max_retries=0,
                         faults=(FaultSpec(kind="kill", shard=0, row=40),))
        with pytest.raises(FleetPartialError):
            run_fleet(config)
        assert not os.path.exists(config.out_stream + ".run")
        # And the unfinished artifact never appeared at out_stream.
        assert not os.path.exists(config.out_stream)

    def test_keep_run_dir_preserves_failed_run(self, tmp_path):
        config = _config(tmp_path, max_retries=0, keep_run_dir=True,
                         faults=(FaultSpec(kind="kill", shard=0, row=40),))
        with pytest.raises(FleetPartialError):
            run_fleet(config)
        run_dir = config.out_stream + ".run"
        assert os.path.isdir(run_dir)
        assert "fleet-run.json" in os.listdir(run_dir)

    def test_keep_run_dir_still_swept_on_success(self, tmp_path):
        result = run_fleet(_config(tmp_path, keep_run_dir=True))
        assert not os.path.exists(result.out_stream + ".run")

    def test_no_stream_run_has_no_run_dir(self, tmp_path):
        config = FleetConfig(scenario="mixed-campus", users=8, shards=2,
                             workers=1, seed=7, total_files=120)
        assert config.run_dir is None
        result = run_fleet(config)
        assert result.out_stream is None
