"""Pooled-kernel state isolation and fused-builder byte identity.

The fused per-user kernel pools one :class:`SessionGenerator` per user
type and re-targets it with
:meth:`~repro.core.synthesis.SessionGenerator.rebind_user` instead of
constructing a fresh generator per user.  The contract is *no state
leakage*: a rebound kernel must serve draw-for-draw exactly what a
freshly constructed generator serves, no matter which users (or how
many sessions of them) it drained before.  The hypothesis tests here
pin that property over random populations, session counts and access
patterns; the golden matrix re-pins the fused plan builder's byte
identity (the per-op reference replay vs ``fast-columnar``) across
every registered scenario with arrivals on and off and under
``time_limit_us`` truncation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseModel, WorkloadGenerator, paper_workload_spec
from repro.core.arrivals import DEFAULT_ARRIVALS
from repro.scenarios import get_scenario, scenario_names
from repro.vfs import MemoryFileSystem

from .scalar_reference import generate_session, run_reference


def _staged(spec, access_pattern="sequential"):
    """A generator plus its manifest layout and planned population."""
    generator = WorkloadGenerator(spec)
    layout = generator.create_file_system(
        MemoryFileSystem(), materialize_users=set(),
        materialize_shared=False,
    )
    assignment, selected = generator.plan_users()
    return generator, layout, assignment, selected


def _drain_users(generator, layout, assignment, selected, access_pattern,
                 sessions, reuse_kernels, phases=False, columnar=False):
    """Op streams per user, drained through pooled or fresh kernels —
    by the fused kernel, or by the reference planner's per-op draws."""
    streams = {}
    for kernel in generator.iter_synthesized_users(
        layout, selected, assignment,
        access_pattern=access_pattern,
        phase_model_factory=PhaseModel if phases else None,
        reuse_kernels=reuse_kernels,
    ):
        if columnar:
            batch, _bounds = kernel.generate_user_batch(range(sessions))
            ops = list(batch.iter_session_ops())
        else:
            ops = [op for s in range(sessions)
                   for op in generate_session(kernel, s)]
        streams[kernel.user_id] = ops
    return streams


population = dict(
    seed=st.integers(min_value=0, max_value=2**20),
    n_users=st.integers(min_value=2, max_value=5),
    sessions=st.integers(min_value=1, max_value=2),
    access_pattern=st.sampled_from(["sequential", "random"]),
    heavy_fraction=st.sampled_from([0.5, 1.0]),
)


class TestPooledStateIsolation:
    """rebind_user ≡ fresh construction, for every drained stream."""

    @given(**population)
    @settings(max_examples=15, deadline=None)
    def test_scalar_streams_equal_fresh(self, seed, n_users, sessions,
                                        access_pattern, heavy_fraction):
        # heavy_fraction < 1 gives two user types, so the pooled path
        # exercises one kernel per type with interleaved rebinds.
        spec = paper_workload_spec(n_users=n_users, total_files=120,
                                   seed=seed,
                                   heavy_fraction=heavy_fraction)
        pooled = _drain_users(*_staged(spec), access_pattern, sessions,
                              reuse_kernels=True)
        fresh = _drain_users(*_staged(spec), access_pattern, sessions,
                             reuse_kernels=False)
        assert pooled == fresh

    @given(**population)
    @settings(max_examples=15, deadline=None)
    def test_fused_batches_equal_fresh(self, seed, n_users, sessions,
                                       access_pattern, heavy_fraction):
        spec = paper_workload_spec(n_users=n_users, total_files=120,
                                   seed=seed,
                                   heavy_fraction=heavy_fraction)
        pooled = _drain_users(*_staged(spec), access_pattern, sessions,
                              reuse_kernels=True, columnar=True)
        fresh = _drain_users(*_staged(spec), access_pattern, sessions,
                             reuse_kernels=False, columnar=True)
        assert pooled == fresh

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_phase_models_rebind_per_user(self, seed):
        """Each rebind gets its own PhaseModel, never a drained chain."""
        spec = paper_workload_spec(n_users=3, total_files=120, seed=seed)
        pooled = _drain_users(*_staged(spec), "sequential", 2,
                              reuse_kernels=True, phases=True)
        fresh = _drain_users(*_staged(spec), "sequential", 2,
                             reuse_kernels=False, phases=True)
        assert pooled == fresh

    def test_rebind_resets_plan_counter_and_identity(self):
        spec = paper_workload_spec(n_users=2, total_files=120, seed=9)
        generator, layout, assignment, selected = _staged(spec)
        kernels = list(generator.iter_synthesized_users(
            layout, selected, assignment, reuse_kernels=False))
        pooled = kernels[0]
        list(pooled.generate_session(0))  # advance every pooled stream
        pooled.rebind_user(1)
        assert pooled.user_id == 1
        assert pooled._plan_counter == 0
        assert (list(pooled.generate_session(0))
                == list(kernels[1].generate_session(0)))

    def test_user_batch_bounds_slice_sessions(self):
        """bounds[i] rows of the fused batch are session i's batch."""
        spec = paper_workload_spec(n_users=1, total_files=120, seed=21)
        generator, layout, assignment, selected = _staged(spec)
        fused_kernel, per_session_kernel = (
            _staged(spec)[0].synthesize_users(layout, selected)[0]
            for _ in range(2)
        )
        batch, bounds = fused_kernel.generate_user_batch(range(3))
        assert bounds[0] == 0 and bounds[-1] == len(batch)
        fused_ops = list(batch.iter_session_ops())
        split = 0
        for session_id in range(3):
            single = per_session_kernel.generate_session_batch(session_id)
            n = bounds[session_id + 1] - bounds[session_id]
            assert n == len(single)
            span = len(list(single.iter_session_ops()))
            assert fused_ops[split:split + span] == list(
                single.iter_session_ops())
            split += span


class TestFusedBuilderGoldenMatrix:
    """Reference replay ≡ fast-columnar records for every scenario ×
    arrivals × truncation — the fused plan builder's byte-identity pin."""

    @pytest.mark.parametrize("arrivals", [False, True])
    @pytest.mark.parametrize("name", scenario_names())
    def test_records_identical(self, name, arrivals):
        scenario = get_scenario(name)
        spec = scenario.build(4, 17)
        model = ((scenario.arrival_model or DEFAULT_ARRIVALS)
                 if arrivals else None)
        phases = PhaseModel if scenario.use_phase_model else None
        scalar = run_reference(
            spec, 2, access_pattern=scenario.access_pattern,
            phase_model_factory=phases, arrivals=model,
        )
        columnar = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=2,
            backend="fast-columnar",
            access_pattern=scenario.access_pattern,
            phase_model_factory=phases,
            arrivals=model,
        )
        assert scalar.log.operations == columnar.log.operations
        assert scalar.log.sessions == columnar.log.sessions

    @pytest.mark.parametrize("name", scenario_names())
    def test_truncation_identical(self, name):
        scenario = get_scenario(name)
        spec = scenario.build(4, 17)

        def run(limit=None):
            return WorkloadGenerator(spec).run_simulated(
                sessions_per_user=2,
                backend="fast-columnar",
                access_pattern=scenario.access_pattern,
                time_limit_us=limit,
            )

        limit = run().simulated_duration_us / 3
        scalar = run_reference(spec, 2, access_pattern=scenario.access_pattern,
                               time_limit_us=limit)
        columnar = run(limit)
        assert scalar.log.operations == columnar.log.operations
        assert scalar.log.sessions == columnar.log.sessions
        assert (scalar.simulated_duration_us
                == columnar.simulated_duration_us)
