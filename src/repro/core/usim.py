"""The User Simulator (USIM) — simulated and real executors.

Section 4.1.3: the USIM "simulates workload on a terminal or workstation,
i.e., a series of users logging in and using the computer".  Since the
pipeline split, the *selection* of operations lives in
:mod:`repro.core.synthesis` (pure, no timing); this module holds the two
executors that replay a synthesized stream against something that takes
time:

* :func:`simulated_user_process` — a DES process replaying the stream
  inside the discrete-event simulation against a simulated file-system
  client, measuring response times off the engine clock.  Wrapped by
  :class:`~repro.core.execution.DesBackend`.
* :class:`RealRunner` — replays against a real (or in-memory)
  ``FileSystemAPI`` and measures wall-clock time, the thesis's
  "difference of before and after calling a system call".

Both replay :meth:`~repro.core.synthesis.SessionGenerator.generate_session`,
the per-op view of the synthesis kernel.  The engine-free analytic
executor lives in :class:`~repro.core.execution.ColumnarReplayBackend`.

``SessionOp``, ``PhaseModel`` and ``SessionGenerator`` are re-exported
here for compatibility with pre-split imports.
"""

from __future__ import annotations

import time

from ..sim import Delay, Engine
from ..vfs import FileSystemAPI, Whence
from .oplog import OpRecord, OpSink, SessionAccounting, apply_op_effects
from .synthesis import PhaseModel, SessionGenerator, SessionOp

__all__ = [
    "SessionOp",
    "PhaseModel",
    "SessionGenerator",
    "simulated_user_process",
    "RealRunner",
]


_WRITE_PAYLOAD = bytes(64 * 1024)


def _payload(nbytes: int) -> bytes:
    """Zero bytes to write; sliced from a shared buffer for speed."""
    if nbytes <= len(_WRITE_PAYLOAD):
        return _WRITE_PAYLOAD[:nbytes]
    return bytes(nbytes)


def simulated_user_process(
    engine: Engine,
    client,
    task,
    log: OpSink,
    deadline_us: float | None = None,
):
    """A DES process: one virtual user running its login sessions.

    ``client`` is any simulated file-system client
    (:class:`~repro.nfs.NfsClient`, local-disk, AFS-like).  Response time
    of every call is the engine-clock delta around it; think operations
    become plain delays.  ``log`` is any :class:`~repro.core.oplog.OpSink`
    — a full :class:`~repro.core.oplog.UsageLog` or an online accumulator.

    ``task`` is the user's :class:`~repro.core.execution.UserSessions`
    work order; its ``offset_us``/``gap_after_us`` encode the arrival
    timing rules (first-login delay, gaps between sessions, no trailing
    gap) shared verbatim with the engine-free backend.  ``deadline_us``
    applies the shared truncation rule: an op whose start clock is at or
    past the deadline is not issued, and an interrupted session records
    no summary.
    """
    generator: SessionGenerator = task.generator
    sessions: int = task.sessions
    user_id = generator.user_id
    type_name = generator.user_type.name
    offset = task.offset_us
    if offset > 0:
        yield Delay(offset)
    for session_id in range(sessions):
        if deadline_us is not None and engine.now >= deadline_us:
            return
        accounting = SessionAccounting(user_id, type_name, session_id,
                                       engine.now)
        fd_by_plan: dict[int, int] = {}
        path_by_plan: dict[int, str] = {}
        for op in generator.generate_session(session_id):
            if op.kind == "think":
                if op.size > 0:
                    yield Delay(op.size)
                continue
            if deadline_us is not None and engine.now >= deadline_us:
                return
            started = engine.now
            observed = None
            if op.kind in ("open", "creat"):
                # ``op.size`` is the file's size: the FSC-recorded size for
                # opens, the target write-out size for creates.
                fd = yield from client.open(op.path, op.flags)
                fd_by_plan[op.plan_id] = fd
                path_by_plan[op.plan_id] = op.path
            elif op.kind == "read":
                data = yield from client.read(fd_by_plan[op.plan_id], op.size)
                observed = len(data)
            elif op.kind == "write":
                observed = yield from client.write(
                    fd_by_plan[op.plan_id], _payload(op.size)
                )
            elif op.kind == "lseek":
                yield from client.lseek(fd_by_plan[op.plan_id], op.size,
                                        Whence.SET)
            elif op.kind == "close":
                yield from client.close(fd_by_plan.pop(op.plan_id))
            elif op.kind == "unlink":
                yield from client.unlink(op.path)
            elif op.kind == "stat":
                yield from client.stat(op.path)
            elif op.kind == "listdir":
                yield from client.listdir(op.path)
            else:  # pragma: no cover - generator only emits known kinds
                raise ValueError(f"unknown op kind {op.kind!r}")
            moved = apply_op_effects(op, accounting, observed)
            log.record_op(
                OpRecord(
                    user_id=user_id,
                    user_type=type_name,
                    session_id=session_id,
                    op=op.kind,
                    path=op.path or path_by_plan.get(op.plan_id, ""),
                    category_key=op.category_key or "",
                    size=moved,
                    start_us=started,
                    response_us=engine.now - started,
                )
            )
        log.record_session(accounting.finish(engine.now))
        gap = task.gap_after_us(session_id)
        if gap > 0:
            yield Delay(gap)


class RealRunner:
    """Replays sessions against a real ``FileSystemAPI`` with wall clocks.

    ``sleep_thinks=False`` (the default) records think times in the stream
    but does not actually sleep, so test runs finish quickly; pass True
    for live load generation against a real file system.
    """

    def __init__(self, fs: FileSystemAPI, generator: SessionGenerator,
                 log: OpSink, sleep_thinks: bool = False):
        self.fs = fs
        self.generator = generator
        self.log = log
        self.sleep_thinks = sleep_thinks

    def run_sessions(self, sessions: int) -> None:
        """Execute ``sessions`` login sessions back to back."""
        for session_id in range(sessions):
            self._run_one(session_id)

    def _now_us(self) -> float:
        # detlint: ignore[no-wall-clock] — RealRunner measures a real FS; wall time is the product
        return time.perf_counter_ns() / 1000.0

    def _run_one(self, session_id: int) -> None:
        generator = self.generator
        user_id = generator.user_id
        type_name = generator.user_type.name
        accounting = SessionAccounting(user_id, type_name, session_id,
                                       self._now_us())
        fd_by_plan: dict[int, int] = {}
        path_by_plan: dict[int, str] = {}
        for op in generator.generate_session(session_id):
            if op.kind == "think":
                if self.sleep_thinks and op.size > 0:
                    time.sleep(op.size / 1e6)
                continue
            started = self._now_us()
            observed = None
            if op.kind in ("open", "creat"):
                fd = self.fs.open(op.path, op.flags)
                fd_by_plan[op.plan_id] = fd
                path_by_plan[op.plan_id] = op.path
            elif op.kind == "read":
                data = self.fs.read(fd_by_plan[op.plan_id], op.size)
                observed = len(data)
            elif op.kind == "write":
                observed = self.fs.write(fd_by_plan[op.plan_id],
                                         _payload(op.size))
            elif op.kind == "lseek":
                self.fs.lseek(fd_by_plan[op.plan_id], op.size, Whence.SET)
            elif op.kind == "close":
                self.fs.close(fd_by_plan.pop(op.plan_id))
            elif op.kind == "unlink":
                self.fs.unlink(op.path)
            elif op.kind == "stat":
                self.fs.stat(op.path)
            elif op.kind == "listdir":
                self.fs.listdir(op.path)
            else:  # pragma: no cover
                raise ValueError(f"unknown op kind {op.kind!r}")
            moved = apply_op_effects(op, accounting, observed)
            self.log.record_op(
                OpRecord(
                    user_id=user_id,
                    user_type=type_name,
                    session_id=session_id,
                    op=op.kind,
                    path=op.path or path_by_plan.get(op.plan_id, ""),
                    category_key=op.category_key or "",
                    size=moved,
                    start_us=started,
                    response_us=self._now_us() - started,
                )
            )
        self.log.record_session(accounting.finish(self._now_us()))
