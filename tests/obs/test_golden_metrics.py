"""Golden byte-identity with instrumentation on.

The observability layer's core guarantee: attaching an observer to a run
must not change a single byte of what the run produces.  The observer
only reads — no RNG stream is consumed, no record or column is written —
so the op stream, session summaries, simulated clock, on-disk stream
artifacts, and fleet tallies must all be identical with metrics enabled
on every backend.
"""

import json

import pytest

from repro.core import WorkloadGenerator, paper_workload_spec
from repro.fleet import FleetConfig, run_fleet
from repro.obs import RunObserver

SPEC = paper_workload_spec(n_users=3, total_files=150, seed=11)
BACKENDS = ("nfs", "fast-columnar")


class TestRunByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observer_does_not_perturb_run(self, backend):
        bare = WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=2, backend=backend)
        observed = WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=2, backend=backend, observer=RunObserver())
        assert bare.log.operations == observed.log.operations
        assert bare.log.sessions == observed.log.sessions
        assert (bare.simulated_duration_us
                == observed.simulated_duration_us)
        assert len(bare.log.operations) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observer_with_progress_hook_does_not_perturb_run(self, backend):
        samples = []

        class Hook:
            def update(self, users, ops):
                samples.append((users, ops))

        bare = WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=1, backend=backend)
        observed = WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=1, backend=backend,
            observer=RunObserver(progress=Hook()))
        assert bare.log.operations == observed.log.operations
        assert samples, "progress hook never fired"


class TestStreamArtifactByteIdentity:
    def test_fleet_artifact_identical_with_metrics_on(self, tmp_path):
        blobs = {}
        for mode in ("bare", "metrics"):
            stream = tmp_path / f"{mode}.opstream"
            manifest = tmp_path / f"{mode}.manifest.json"
            run_fleet(FleetConfig(
                scenario="mixed-campus", users=8, shards=2, workers=1,
                seed=5, backend="fast-columnar", out_stream=str(stream),
                metrics_out=(str(manifest) if mode == "metrics" else None),
            ))
            blobs[mode] = stream.read_bytes()
        assert blobs["bare"] == blobs["metrics"]
        assert len(blobs["bare"]) > 0


class TestFleetMetrics:
    def test_manifest_counters_match_tally(self, tmp_path):
        manifest_path = tmp_path / "run.manifest.json"
        result = run_fleet(FleetConfig(
            scenario="mixed-campus", users=8, shards=2, workers=1, seed=5,
            backend="fast-columnar", metrics_out=str(manifest_path),
        ))
        assert result.metrics is not None
        assert result.metrics_out == str(manifest_path)
        counters = result.metrics["counters"]
        assert counters["ops"] == result.tally.operations
        assert counters["sessions"] == result.tally.sessions
        assert counters["users"] == 8
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "repro.run-manifest"
        assert manifest["metrics"]["counters"] == counters
        assert manifest["run"]["seed"] == 5
        assert manifest["run"]["backend"] == "fast-columnar"
        assert manifest["run"]["scenario"] == "mixed-campus"
        assert manifest["run"]["shards"] == 2

    def test_merged_shard_counters_shard_invariant(self):
        snapshots = []
        for shards in (1, 3):
            result = run_fleet(FleetConfig(
                scenario="mixed-campus", users=9, shards=shards, workers=1,
                seed=5, backend="fast-columnar", metrics_out="/dev/null",
            ))
            snapshots.append(result.metrics)
        assert snapshots[0]["counters"] == snapshots[1]["counters"]
        assert (snapshots[0]["stats"]["response_us"]["count"]
                == snapshots[1]["stats"]["response_us"]["count"])
        assert (snapshots[0]["histograms"]["response_us"]["counts"]
                == snapshots[1]["histograms"]["response_us"]["counts"])

    def test_tally_identical_with_and_without_metrics(self):
        bare = run_fleet(FleetConfig(
            scenario="batch-heavy", users=6, shards=2, workers=1, seed=9,
            backend="fast-columnar",
        ))
        observed = run_fleet(FleetConfig(
            scenario="batch-heavy", users=6, shards=2, workers=1, seed=9,
            backend="fast-columnar", metrics_out="/dev/null",
        ))
        assert bare.tally == observed.tally
        assert bare.aggregate_kv() == observed.aggregate_kv()
