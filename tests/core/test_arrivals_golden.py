"""Golden cross-backend identity with the temporal load model enabled.

The arrivals layer's contract extends the staged pipeline's: schedules
move the *timeline* only.  With arrivals on, every backend must still
emit the byte-identical op stream it emits with arrivals off, the
engine-free backend must agree bit-for-bit with the per-op reference
replay on records — start clocks included — and the merged fleet tally
(windowed offered-load buckets included) must stay
shard-count-invariant.  The DES shares the exact
first-login offsets (they come from the same pre-resolved schedules)
but times subsequent ops on its own queueing clock, so it is held to
content identity plus offset identity.
"""

import pytest

from repro.core import (
    ArrivalModel,
    DEFAULT_ARRIVALS,
    WorkloadGenerator,
    get_profile,
)
from repro.fleet import FleetConfig, run_fleet
from repro.scenarios import get_scenario

from .scalar_reference import reference_fleet_tally, run_reference

SCENARIOS = ("mixed-campus", "batch-heavy")
SEED = 17
USERS = 3
SESSIONS = 2


def run_scenario(name, backend, arrivals, **kwargs):
    scenario = get_scenario(name)
    spec = scenario.build(USERS, SEED)
    return WorkloadGenerator(spec).run_simulated(
        sessions_per_user=SESSIONS,
        backend=backend,
        access_pattern=scenario.access_pattern,
        arrivals=arrivals,
        **kwargs,
    )


def run_scenario_reference(name, arrivals, **kwargs):
    scenario = get_scenario(name)
    return run_reference(scenario.build(USERS, SEED), SESSIONS,
                         access_pattern=scenario.access_pattern,
                         arrivals=arrivals, **kwargs)


def content_by_user(log):
    """Per-user, in-order, timing-free projection of an op log."""
    out = {}
    for op in log.operations:
        out.setdefault(op.user_id, []).append(
            (op.session_id, op.op, op.path, op.category_key, op.size)
        )
    return out


@pytest.mark.parametrize("name", SCENARIOS)
class TestArrivalsGoldenIdentity:
    def model(self, name):
        return get_scenario(name).arrival_model or DEFAULT_ARRIVALS

    def test_all_backends_same_stream_fast_pair_bit_identical(self, name):
        model = self.model(name)
        des = run_scenario(name, "nfs", model)
        fast = run_scenario_reference(name, model)
        columnar = run_scenario(name, "fast-columnar", model)
        # content identity across all three
        reference = content_by_user(fast.log)
        assert content_by_user(des.log) == reference
        assert content_by_user(columnar.log) == reference
        # bit identity (start clocks and response times included) for
        # the reference replay and fast-columnar, sessions and duration
        # too
        assert fast.log.operations == columnar.log.operations
        assert fast.log.sessions == columnar.log.sessions
        assert fast.simulated_duration_us == columnar.simulated_duration_us

    def test_des_shares_the_first_login_offsets(self, name):
        model = self.model(name)
        des = run_scenario(name, "nfs", model)
        fast = run_scenario(name, "fast-columnar", model)

        def first_starts(log):
            firsts = {}
            for op in log.operations:
                firsts.setdefault(op.user_id, op.start_us)
            return firsts

        assert first_starts(des.log) == first_starts(fast.log)

    def test_arrivals_do_not_change_the_op_stream(self, name):
        model = self.model(name)
        with_arrivals = run_scenario(name, "fast-columnar", model)
        without = run_scenario(name, "fast-columnar", None)
        assert (content_by_user(with_arrivals.log)
                == content_by_user(without.log))
        # but the timeline did move: users no longer all start at 0
        starts = {op.start_us for op in with_arrivals.log.operations}
        assert min(starts) > 0.0

    def test_truncation_stays_bit_identical(self, name):
        model = self.model(name)
        full = run_scenario(name, "fast-columnar", model)
        limit = full.simulated_duration_us / 2
        fast = run_scenario_reference(name, model, time_limit_us=limit)
        columnar = run_scenario(name, "fast-columnar", model,
                                time_limit_us=limit)
        assert fast.log.operations == columnar.log.operations
        assert fast.log.sessions == columnar.log.sessions
        assert fast.simulated_duration_us == columnar.simulated_duration_us
        assert len(columnar.log.operations) < len(full.log.operations)

    def test_des_truncation_obeys_the_boundary_rule(self, name):
        model = self.model(name)
        full = run_scenario(name, "nfs", model)
        limit = full.simulated_duration_us / 2
        cut = run_scenario(name, "nfs", model, time_limit_us=limit)
        assert cut.simulated_duration_us <= limit
        assert all(op.start_us < limit for op in cut.log.operations)
        assert all(s.end_us <= limit for s in cut.log.sessions)
        assert len(cut.log.operations) < len(full.log.operations)


class TestArrivalsFleetInvariance:
    """The ISSUE acceptance property: `fleet run --profile` output is
    invariant to shard count (windowed offered-load buckets included)."""

    def fleet(self, shards, backend="fast-columnar", **kwargs):
        return run_fleet(FleetConfig(
            scenario="mixed-campus", users=9, shards=shards, workers=1,
            seed=5, backend=backend, use_arrivals=True, **kwargs,
        ))

    def test_windowed_aggregate_shard_invariant(self):
        one = self.fleet(1)
        assert one.tally.ops_by_window  # windows actually recorded
        for shards in (2, 3, 12):
            many = self.fleet(shards)
            assert many.aggregate_kv() == one.aggregate_kv()
            # the offered-load curve itself is shard-invariant on the
            # engine-free backends (per-user clocks)
            assert many.tally.ops_by_window == one.tally.ops_by_window
            assert many.tally == one.tally

    def test_scalar_and_columnar_windowed_tallies_match(self):
        columnar = self.fleet(2)
        assert reference_fleet_tally(columnar.config) == columnar.tally

    def test_profile_override_changes_the_curve(self):
        office = self.fleet(1)
        nightly = self.fleet(1, profile="nightly")
        assert office.tally.ops_by_window != nightly.tally.ops_by_window
        assert office.tally.operations == nightly.tally.operations

    def test_report_renders_offered_load(self):
        from repro.harness import fleet_offered_load_block, fleet_report

        result = self.fleet(2)
        block = fleet_offered_load_block(result)
        assert block is not None and "Offered load" in block
        assert "Offered load" in fleet_report(result)

    def test_offered_load_rows_sum_to_operations(self):
        result = self.fleet(3)
        rows = result.tally.offered_load()
        assert sum(ops for _, ops, _ in rows) == result.tally.operations

    def test_explicit_model_on_spec_config(self):
        from repro.core import paper_workload_spec

        spec = paper_workload_spec(n_users=4, total_files=100, seed=3)
        model = ArrivalModel(profile=get_profile("evening"))
        result = run_fleet(FleetConfig(spec=spec, shards=2, workers=1,
                                       arrival_model=model,
                                       backend="fast-columnar"))
        assert result.tally.ops_by_window
        assert result.tally.sessions == 4
