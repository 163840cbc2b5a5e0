"""Golden kernel-vs-reference equivalence, across the whole scenario space.

The columnar kernel's contract is *representation change only*: for any
workload, `generate_session_batch` must emit the byte-identical op stream
that the one-draw-per-op reference planner (`scalar_reference`) yields,
and the `fast-columnar` backend must record the bit-identical operation
records, session summaries and fleet tallies that the per-op reference
replay records — including under `time_limit_us` truncation, for both
access patterns, and with the phase model on or off.
"""

import pytest

from repro.core import (
    PhaseModel,
    StreamReader,
    WorkloadGenerator,
    paper_workload_spec,
)
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.merge import ShardAccumulator
from repro.scenarios import get_scenario, scenario_names
from repro.vfs import MemoryFileSystem

from .scalar_reference import (
    generate_session,
    reference_fleet_tally,
    run_reference,
)

SPEC = paper_workload_spec(n_users=3, total_files=150, seed=11)


def synthesizers(spec, access_pattern="sequential", phases=False):
    """Two stream-aligned generator sets for one spec (reference and
    kernel consume the same per-user streams, so each side needs its own
    fresh ``WorkloadGenerator``)."""
    out = []
    for _ in range(2):
        generator = WorkloadGenerator(spec)
        layout = generator.create_file_system(
            MemoryFileSystem(), materialize_users=set(),
            materialize_shared=False,
        )
        assignment, selected = generator.plan_users()
        out.append(generator.synthesize_users(
            layout, selected, assignment,
            access_pattern=access_pattern,
            phase_model_factory=PhaseModel if phases else None,
        ))
    return out


def assert_streams_identical(spec, access_pattern, phases, sessions=2):
    scalar_users, columnar_users = synthesizers(spec, access_pattern, phases)
    compared = 0
    for scalar_gen, columnar_gen in zip(scalar_users, columnar_users):
        for session_id in range(sessions):
            scalar = list(generate_session(scalar_gen, session_id))
            batch = columnar_gen.generate_session_batch(session_id)
            columnar = list(batch.iter_session_ops())
            assert scalar == columnar
            compared += len(scalar)
    assert compared > 0


class TestSessionStreamsAcrossScenarios:
    """Every registered scenario: reference and kernel synthesis agree."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_streams_identical(self, name):
        scenario = get_scenario(name)
        spec = scenario.build(4, 13)
        assert_streams_identical(
            spec, scenario.access_pattern, scenario.use_phase_model,
            sessions=1,
        )


class TestSessionStreamsMatrix:
    """Paper spec × access pattern × phase model."""

    @pytest.mark.parametrize("access_pattern", ["sequential", "random"])
    @pytest.mark.parametrize("phases", [False, True])
    def test_streams_identical(self, access_pattern, phases):
        assert_streams_identical(SPEC, access_pattern, phases)


class TestBackendRecordsMatrix:
    """Reference replay vs fast-columnar: bit-identical records, timing
    included."""

    def run(self, backend, **kwargs):
        return WorkloadGenerator(SPEC).run_simulated(
            sessions_per_user=2, backend=backend, **kwargs
        )

    @pytest.mark.parametrize("kwargs", [
        {},
        {"access_pattern": "random"},
        {"phase_model_factory": PhaseModel},
        {"access_pattern": "random", "phase_model_factory": PhaseModel},
    ])
    def test_records_identical(self, kwargs):
        scalar = run_reference(SPEC, 2, **kwargs)
        columnar = self.run("fast-columnar", **kwargs)
        assert scalar.log.operations == columnar.log.operations
        assert scalar.log.sessions == columnar.log.sessions
        assert (scalar.simulated_duration_us
                == columnar.simulated_duration_us)

    def test_truncation_identical(self):
        full = self.run("fast-columnar")
        limit = full.simulated_duration_us / 4
        scalar = run_reference(SPEC, 2, time_limit_us=limit)
        columnar = self.run("fast-columnar", time_limit_us=limit)
        assert scalar.log.operations == columnar.log.operations
        assert scalar.log.sessions == columnar.log.sessions
        assert (scalar.simulated_duration_us
                == columnar.simulated_duration_us)
        assert len(columnar.log.operations) < len(full.log.operations)

    def test_matches_des_content(self):
        sim = self.run("nfs")
        columnar = self.run("fast-columnar")

        def by_user(log):
            out = {}
            for op in log.operations:
                out.setdefault(op.user_id, []).append(
                    (op.session_id, op.op, op.path, op.category_key, op.size)
                )
            return out

        assert by_user(sim.log) == by_user(columnar.log)


class TestFleetTallies:
    """The fleet aggregate equals the reference's, for any shard count."""

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_columnar_tally_equals_scalar(self, shards):
        config = FleetConfig(
            scenario="mixed-campus", users=12, shards=shards, workers=1,
            seed=5, backend="fast-columnar",
        )
        scalar = reference_fleet_tally(config)
        columnar = run_fleet(config)
        assert scalar == columnar.tally
        assert scalar.as_kv() == columnar.aggregate_kv()

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_tallies_match(self, name):
        config = FleetConfig(scenario=name, users=4, shards=1, workers=1,
                             seed=3, backend="fast-columnar")
        scalar = reference_fleet_tally(config)
        assert scalar == run_fleet(config).tally
        assert scalar.operations > 0


class TestStreamArtifactsAcrossScenarios:
    """Every scenario's on-disk op stream equals its in-RAM stream."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_artifact_replays_to_run_tally(self, name, tmp_path):
        path = tmp_path / "run.opstream"
        result = run_fleet(FleetConfig(
            scenario=name, users=4, shards=1, workers=1, seed=3,
            backend="fast-columnar", out_stream=str(path),
        ))
        replayed = ShardAccumulator()
        with StreamReader(str(path)) as reader:
            rows, sessions = reader.replay(replayed)
        assert replayed.tally == result.tally
        assert rows == result.tally.operations > 0
        assert sessions == result.tally.sessions

    @pytest.mark.parametrize("name", scenario_names())
    def test_merged_shards_bit_identical(self, name, tmp_path):
        blobs = []
        for shards in (1, 2):
            path = tmp_path / f"s{shards}.opstream"
            run_fleet(FleetConfig(
                scenario=name, users=4, shards=shards, workers=1, seed=3,
                backend="fast-columnar", out_stream=str(path),
            ))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
