"""The benchmark's three workloads: inputs, timed body, output checks.

Each workload is one fixed input size generated offline by a single
Python process (``workers=1``, no pool, no threads) and run to
completion.  See ``perfbench/README.md`` for why each one exists and
which layers it stresses.

A workload has these steps:

* ``setup(seed, workdir)`` -- build the scenario spec and, where the
  workload drives it directly, the ``WorkloadGenerator`` (counted in
  ``setup_s``);
* ``generate(ctx)`` -- the timed region: generation through the final
  sink close, shard merge included;
* ``replay(ctx, out)`` -- a second timed region, only where the
  workload writes an op-stream artifact;
* ``measure(ctx, out)`` -- untimed facts about the artifact;
* ``checks(ctx, out, reference)`` -- ``(name, ok)`` pairs comparing the
  outputs with facts that hold on any seed and, for a population seed in
  ``REFERENCE_SEEDS``, with the digests pinned in
  ``perfbench/reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from repro.core import StreamReader, WorkloadGenerator
from repro.core.streamfile import verify_stream
from repro.core.synthesis import PhaseModel
from repro.fleet import FleetConfig, runner
from repro.fleet.merge import ShardAccumulator, WorkloadTally
from repro.scenarios import get_scenario

# Population seeds whose digests reference.json pins.  Generation 0 of
# a run keeps the run's --seed, so every run with a seed in this range
# checks at least one generation against pinned digests.
REFERENCE_SEEDS = range(21)

OP_HEAVY_USERS = 600
MANY_USERS_USERS = 3000
MANY_USERS_FILES = 2000        # the pinned file set of bench_scale
MANY_USERS_SHARDS = 2
# Spill budget: ~21k rows per chunk, so each shard spills several
# chunks before its final flush and the merge interleaves real chunks.
MANY_USERS_BUDGET = 1_500_000
REPLAY_PASSES = 3
DES_USERS = 24


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    """SHA-256 of a file's bytes."""
    sha = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


@dataclass
class Output:
    """What a timed region produced, and what was measured about it."""

    ops: int
    tally: object
    facts: dict = field(default_factory=dict)
    replays: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# op-heavy and des-nfs: one WorkloadGenerator.run_simulated into a tally
# ---------------------------------------------------------------------------


class _SimulatedRun:
    """``mixed-campus`` users, 4 sessions each, into a ``WorkloadTally``."""

    scenario = "mixed-campus"
    sessions = 4

    def __init__(self, name: str, users: int, backend: str):
        self.name = name
        self.users = users
        self.backend = backend

    def setup(self, seed: int, workdir: str) -> dict:
        scenario = get_scenario(self.scenario)
        generator = WorkloadGenerator(scenario.build(self.users, seed))
        return {"scenario": scenario, "generator": generator}

    def generate(self, ctx: dict) -> Output:
        scenario = ctx["scenario"]
        tally = WorkloadTally()
        result = ctx["generator"].run_simulated(
            sessions_per_user=self.sessions,
            backend=self.backend,
            access_pattern=scenario.access_pattern,
            phase_model_factory=(PhaseModel if scenario.use_phase_model
                                 else None),
            log=tally,
        )
        facts = {}
        if result.handle is not None:
            cache = result.handle.server.cache
            facts = {
                "simulated_duration_us": result.simulated_duration_us,
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
            }
        return Output(ops=tally.operations, tally=tally, facts=facts)

    def replay(self, ctx: dict, out: Output) -> None:
        return None

    def measure(self, ctx: dict, out: Output) -> None:
        return None

    def checks(self, ctx: dict, out: Output, reference: dict | None):
        tally = out.tally
        yield ("every session completed",
               tally.sessions == self.users * self.sessions)
        yield ("ops by kind add up",
               out.ops > 0 and sum(tally.ops_by_kind.values()) == out.ops)
        if self.backend == "nfs":
            yield ("simulated clock advanced",
                   out.facts["simulated_duration_us"] > 0)
        if reference is not None:
            yield ("tally digest", digest(tally.as_kv())
                   == reference["tally_sha256"])
            for key in ("simulated_duration_us", "cache_hits",
                        "cache_misses"):
                if key in reference:
                    yield (key, out.facts[key] == reference[key])

    def reference(self, ctx: dict, out: Output) -> dict:
        """The digests :meth:`checks` pins, from this run's outputs."""
        return {"tally_sha256": digest(out.tally.as_kv()), **out.facts}


# ---------------------------------------------------------------------------
# many-users: a 2-shard inline fleet spilling to one merged artifact
# ---------------------------------------------------------------------------


class _FleetStreamRun:
    """``batch-heavy`` users, 1 session each, arrivals on, spilled + merged."""

    name = "many-users"
    scenario = "batch-heavy"
    sessions = 1

    def __init__(self, users: int = MANY_USERS_USERS,
                 budget: int = MANY_USERS_BUDGET):
        self.users = users
        self.budget = budget

    def config(self, spec, scenario, out_stream: str):
        """The fleet configuration: inline (``workers=1``), two shards."""
        return FleetConfig(
            spec=spec,
            shards=MANY_USERS_SHARDS,
            workers=1,
            backend="fast-columnar",
            sessions_per_user=self.sessions,
            access_pattern=scenario.access_pattern,
            use_phase_model=scenario.use_phase_model,
            use_arrivals=True,
            arrival_model=scenario.arrival_model,
            out_stream=out_stream,
            stream_budget_bytes=self.budget,
        )

    def setup(self, seed: int, workdir: str) -> dict:
        scenario = get_scenario(self.scenario)
        spec = scenario.build(self.users, seed, total_files=MANY_USERS_FILES)
        path = os.path.join(workdir, "many-users.opstream")
        return {"config": self.config(spec, scenario, path), "path": path}

    def generate(self, ctx: dict) -> Output:
        # runner.run_fleet is looked up at call time, so a traced run
        # reaches the tracer's wrapper.
        result = runner.run_fleet(ctx["config"])
        return Output(ops=result.tally.operations, tally=result.tally,
                      facts={"shard_ops": [o.tally.operations
                                           for o in result.outcomes]})

    def replay(self, ctx: dict, out: Output) -> None:
        """Replay the artifact ``REPLAY_PASSES`` times into fresh tallies."""
        started = time.process_time()
        for _ in range(REPLAY_PASSES):
            sink = ShardAccumulator(window_us=out.tally.window_us)
            with StreamReader(ctx["path"]) as reader:
                rows, _ = reader.replay(sink)
            out.replays.append((rows, sink.tally))
        out.facts["replay_cpu_s"] = time.process_time() - started
        out.facts["replay_rows"] = sum(rows for rows, _ in out.replays)

    def measure(self, ctx: dict, out: Output) -> None:
        """Artifact size and chunk count, read after the timed regions."""
        with StreamReader(ctx["path"]) as reader:
            out.facts["chunks"] = len(reader.chunk_index)
            out.facts["rows_per_chunk"] = reader.rows_per_chunk
        out.facts["artifact_bytes"] = os.path.getsize(ctx["path"])

    def checks(self, ctx: dict, out: Output, reference: dict | None):
        path = ctx["path"]
        shard_ops = out.facts["shard_ops"]
        yield ("two shards merged",
               len(shard_ops) == MANY_USERS_SHARDS
               and sum(shard_ops) == out.ops)
        # A shard whose rows outnumber a chunk flushed at least one full
        # chunk before its close.
        yield ("each shard spilled",
               min(shard_ops) > out.facts["rows_per_chunk"])
        yield ("artifact verifies", verify_stream(path).ok)
        for rows, tally in out.replays:
            yield ("replayed rows == ops", rows == out.ops)
            yield ("replayed tally == generating tally", tally == out.tally)
        if reference is not None:
            yield ("tally digest", digest(out.tally.as_kv())
                   == reference["tally_sha256"])
            yield ("artifact digest",
                   file_digest(path) == reference["artifact_sha256"])

    def reference(self, ctx: dict, out: Output) -> dict:
        return {"tally_sha256": digest(out.tally.as_kv()),
                "artifact_sha256": file_digest(ctx["path"])}


WORKLOADS = {
    "op-heavy": _SimulatedRun("op-heavy", OP_HEAVY_USERS, "fast-columnar"),
    "many-users": _FleetStreamRun(),
    "des-nfs": _SimulatedRun("des-nfs", DES_USERS, "nfs"),
}
