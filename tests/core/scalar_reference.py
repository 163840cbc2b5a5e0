"""Scalar reference implementations — the test-side oracle.

Production synthesis is one columnar kernel
(:meth:`~repro.core.synthesis.SessionGenerator.generate_user_batch`) and
the engine-free executor is one array-native backend
(:class:`~repro.core.execution.ColumnarReplayBackend`).  This module
keeps the plain per-op formulations they are measured against:

* :func:`generate_session` — the scalar planner: one draw per quantity
  per op from a :class:`SessionGenerator`'s own samplers, per-file
  scripts (open → data ops → close), interleaved by one slot uniform per
  op among at most ``max_open_files`` open plans, a think op after each;
* :func:`replay` — the per-op analytic replay loop: one
  :class:`~repro.core.oplog.OpRecord` per op on each user's own clock,
  the shared truncation rule applied op by op;
* :func:`run_reference` / :func:`reference_fleet_tally` — the
  ``run_simulated`` / ``run_fleet`` pipeline with those two in place of
  the kernel and the columnar executor.

Because every quantity owns a named stream, the reference and the
kernel draw the same variates in the same per-stream order; the golden
tests compare them op for op, record for record, timing included.
Calling these functions advances the generator's streams exactly as the
kernel would, so one generator must not feed both sides of a comparison.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core import (
    AnalyticServiceModel,
    OpRecord,
    OpSink,
    PhaseModel,
    SessionAccounting,
    SessionGenerator,
    SessionOp,
    UsageLog,
    UserSessions,
    WorkloadGenerator,
)
from repro.core.oplog import apply_op_effects
from repro.core.spec import UseType
from repro.fleet.merge import WorkloadTally
from repro.fleet.runner import _resolve_run_inputs
from repro.vfs import MemoryFileSystem, OpenFlags

# -- sampling (clamped exactly as the kernel's vectorized clamps) -------------


def _count(samplers) -> int:
    raw = samplers.file_count.draw()
    if not math.isfinite(raw):
        return 1
    return max(1, int(round(raw)))


def _ratio(samplers) -> float:
    ratio = samplers.access_per_byte.draw()
    if not math.isfinite(ratio) or ratio < 0.0:
        return 0.0
    return ratio


def _budget(samplers, file_size: int) -> int:
    return int(round(_ratio(samplers) * file_size))


def _file_size(samplers) -> int:
    raw = samplers.file_size.draw()
    if not math.isfinite(raw):
        return 1
    return max(1, int(round(raw)))


def _chunk(gen: SessionGenerator, remaining: int) -> int:
    raw = gen._chunk.draw()
    if not math.isfinite(raw):
        return 1
    return max(1, min(int(round(raw)), remaining))


def _think_us(gen: SessionGenerator) -> int:
    raw = gen._think.draw()
    if gen.phase_model is not None:
        raw *= gen.phase_model.step(gen._phase.draw())
    if not math.isfinite(raw) or raw < 0.0:
        return 0
    return int(round(raw))


def _seek_offset(gen: SessionGenerator, file_size: int) -> int:
    return min(int(gen._seek.draw() * file_size), file_size - 1)


def _next_plan_id(gen: SessionGenerator) -> int:
    gen._plan_counter += 1
    return gen._plan_counter


# -- per-file scripts ---------------------------------------------------------


def _data_ops(gen, plan_id, budget, file_size, write_fraction, key):
    """Chunked read/write ops consuming ``budget`` bytes of a file:
    sequential mode wraps to offset 0 at EOF, random mode seeks to a
    uniform offset before every chunk."""
    ops: list[SessionOp] = []
    if budget <= 0 or file_size <= 0:
        return ops
    random_access = gen.access_pattern == "random"
    position = 0
    remaining = budget
    while remaining > 0:
        if random_access:
            position = _seek_offset(gen, file_size)
            ops.append(SessionOp("lseek", plan_id=plan_id, size=position,
                                 category_key=key))
        elif position >= file_size:
            position = 0
            ops.append(SessionOp("lseek", plan_id=plan_id, size=0,
                                 category_key=key))
        chunk = _chunk(gen, remaining if random_access
                       else min(remaining, file_size - position))
        chunk = min(chunk, file_size - position)
        if chunk <= 0:
            position = 0
            continue
        is_write = gen._write_mix.draw() < write_fraction
        ops.append(SessionOp("write" if is_write else "read",
                             plan_id=plan_id, size=chunk, category_key=key))
        position += chunk
        remaining -= chunk
    return ops


def _plan_for_existing(gen, samplers, path, file_size):
    category = samplers.usage.category
    plan_id = _next_plan_id(gen)
    budget = _budget(samplers, file_size)
    write_fraction = 0.5 if category.use is UseType.RD_WRT else 0.0
    mode = OpenFlags.RDWR if category.writes else OpenFlags.RDONLY
    ops = [SessionOp("open", plan_id=plan_id, path=path,
                     category_key=category.key, size=file_size, flags=mode)]
    ops += _data_ops(gen, plan_id, budget, file_size, write_fraction,
                     category.key)
    ops.append(SessionOp("close", plan_id=plan_id, path=path,
                         category_key=category.key))
    return ops


def _plan_for_new(gen, samplers, path, temporary):
    category = samplers.usage.category
    plan_id = _next_plan_id(gen)
    target = _file_size(samplers)
    ops = [SessionOp("creat", plan_id=plan_id, path=path,
                     category_key=category.key, size=target,
                     flags=OpenFlags.RDWR | OpenFlags.CREAT
                     | OpenFlags.TRUNC)]
    written = 0
    while written < target:
        chunk = _chunk(gen, target - written)
        ops.append(SessionOp("write", plan_id=plan_id, size=chunk,
                             category_key=category.key))
        written += chunk
    # The rest of the access budget re-reads the fresh file.
    read_budget = max(0, _budget(samplers, target) - target)
    if read_budget > 0:
        ops.append(SessionOp("lseek", plan_id=plan_id, size=0,
                             category_key=category.key))
        ops += _data_ops(gen, plan_id, read_budget, target, 0.0,
                         category.key)
    ops.append(SessionOp("close", plan_id=plan_id, path=path,
                         category_key=category.key))
    if temporary:
        ops.append(SessionOp("unlink", path=path, category_key=category.key))
    return ops


def _plan_for_directory(gen, samplers, path, dir_size):
    key = samplers.usage.category.key
    plan_id = _next_plan_id(gen)
    passes = max(1, int(round(_ratio(samplers))))
    ops = [SessionOp("stat", path=path, category_key=key, plan_id=plan_id,
                     size=dir_size)]
    ops += [SessionOp("listdir", path=path, category_key=key, size=dir_size)
            for _ in range(passes)]
    return ops


def _build_plans(gen: SessionGenerator, session_id: int) -> list[list]:
    """The session's selection walk, one op script per file plan."""
    plans = []
    for samplers in gen._usage_samplers:
        usage = samplers.usage
        if gen._rng_select.random() >= usage.fraction_of_users:
            continue
        category = usage.category
        count = _count(samplers)
        if category.creates_files:
            temporary = category.use is UseType.TEMP
            home = gen.layout.user_home(gen.user_id)
            prefix = "tmp" if temporary else "new"
            for k in range(count):
                # New-file paths embed the live plan counter.
                path = (f"{home}/{prefix}-s{session_id:04d}-"
                        f"p{gen._plan_counter:05d}-{k}")
                plans.append(_plan_for_new(gen, samplers, path, temporary))
            continue
        pool = gen.layout.files_for(category, gen.user_id)
        if not pool:
            continue
        chosen = gen._rng_select.choice(len(pool), size=min(count, len(pool)),
                                        replace=False)
        for idx in chosen.reshape(-1):
            record = pool[int(idx)]
            if category.is_directory:
                plans.append(_plan_for_directory(gen, samplers, record.path,
                                                 record.size))
            else:
                plans.append(_plan_for_existing(gen, samplers, record.path,
                                                record.size))
    return plans


def generate_session(gen: SessionGenerator,
                     session_id: int) -> Iterator[SessionOp]:
    """Scalar reference for :meth:`SessionGenerator.generate_session`."""
    pending = deque(_build_plans(gen, session_id))
    active: list[list] = []   # [ops, next index] per open plan
    max_open = gen.user_type.max_open_files
    while pending or active:
        while pending and len(active) < max_open:
            active.append([pending.popleft(), 0])
        if not active:
            break
        slot = int(gen._slot.draw() * len(active))
        if slot == len(active):  # float rounding of u ≈ 1
            slot -= 1
        plan = active[slot]
        ops, i = plan
        yield ops[i]
        plan[1] = i + 1
        if plan[1] >= len(ops):
            active.pop(slot)
        yield SessionOp("think", size=_think_us(gen))


# -- per-op analytic replay ---------------------------------------------------


def _replay_user(task: UserSessions, log: OpSink, limit, model) -> float:
    generator = task.generator
    user_id = generator.user_id
    type_name = generator.user_type.name
    clock = task.offset_us
    for session_id in range(task.sessions):
        if limit is not None and clock >= limit:
            break
        accounting = SessionAccounting(user_id, type_name, session_id, clock)
        path_by_plan: dict[int, str] = {}
        truncated = False
        for op in generate_session(generator, session_id):
            if op.kind == "think":
                clock += op.size
                continue
            if limit is not None and clock >= limit:
                truncated = True
                break
            if op.kind in ("open", "creat"):
                path_by_plan[op.plan_id] = op.path
            moved = apply_op_effects(op, accounting)
            service = model.response_us(op.kind, op.size)
            log.record_op(OpRecord(
                user_id=user_id,
                user_type=type_name,
                session_id=session_id,
                op=op.kind,
                path=op.path or path_by_plan.get(op.plan_id, ""),
                category_key=op.category_key or "",
                size=moved,
                start_us=clock,
                response_us=service,
            ))
            clock += service
        if limit is not None and not truncated and clock > limit:
            # A trailing think crossed the limit: not completed either.
            truncated = True
        if truncated:
            # Executed ops are recorded, the session summary is not.
            clock = limit
            break
        log.record_session(accounting.finish(clock))
        clock += task.gap_after_us(session_id)
    return clock if limit is None else min(clock, limit)


def replay(tasks: Iterable[UserSessions], log: OpSink,
           time_limit_us: float | None = None) -> float:
    """Scalar reference for :meth:`ColumnarReplayBackend.execute`."""
    model = AnalyticServiceModel()
    duration = 0.0
    for task in tasks:
        duration = max(duration,
                       _replay_user(task, log, time_limit_us, model))
    return duration


# -- whole pipelines ----------------------------------------------------------


@dataclass
class ReferenceRun:
    log: UsageLog
    simulated_duration_us: float


def run_reference(spec, sessions_per_user: int = 1,
                  access_pattern: str = "sequential",
                  phase_model_factory=None,
                  time_limit_us: float | None = None,
                  arrivals=None) -> ReferenceRun:
    """``run_simulated(backend="fast-columnar")`` through the references:
    same plan, same manifest layout, same schedules."""
    generator = WorkloadGenerator(spec)
    assignment, selected = generator.plan_users()
    layout = generator.create_file_system(
        MemoryFileSystem(), materialize_users=set(),
        materialize_shared=False,
    )
    tasks = (
        UserSessions(
            g, sessions_per_user,
            schedule=(arrivals.schedule(generator.streams, g.user_id,
                                        sessions_per_user)
                      if arrivals is not None else None),
        )
        for g in generator.iter_synthesized_users(
            layout, selected, assignment,
            access_pattern=access_pattern,
            phase_model_factory=phase_model_factory,
        )
    )
    log = UsageLog()
    duration = replay(tasks, log, time_limit_us)
    return ReferenceRun(log, duration)


def reference_fleet_tally(config):
    """The merged tally an engine-free ``run_fleet(config)`` must equal,
    folded from one unsharded :func:`run_reference` run."""
    spec, pattern, phases, sessions, model, window_us = (
        _resolve_run_inputs(config))
    run = run_reference(
        spec, sessions, access_pattern=pattern,
        phase_model_factory=PhaseModel if phases else None,
        time_limit_us=config.time_limit_us, arrivals=model,
    )
    return WorkloadTally.from_log(run.log, window_us=window_us)
