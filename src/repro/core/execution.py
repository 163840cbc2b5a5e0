"""Execution backends — the *how long* of the workload.

Stage three of the generation pipeline (plan → synthesize → execute):
an :class:`ExecutionBackend` replays the pure operation streams produced
by :class:`~repro.core.synthesis.SessionGenerator` and attaches timing.
Two implementations ship:

* :class:`DesBackend` — the discrete-event simulation path.  Every call
  runs through a simulated file-system client (NFS, local-disk or
  AFS-like), users contend for shared server/network/disk resources, and
  response times come off the engine clock.  Full timing fidelity, one
  Python-generator resumption chain per call.
* :class:`ColumnarReplayBackend` — the engine-free throughput path.
  Each op is charged the *analytic mean* service time of the same
  calibrated timing parameters (:class:`AnalyticServiceModel`), with no
  queueing and no engine.  A user's sessions arrive as one
  :class:`~repro.core.opbatch.OpBatch`; service times, start clocks and
  the time-limit cutoff are single array expressions, and batches flow
  to the sink via ``record_batch``.  The floor
  ``benchmarks/bench_backends.py`` enforces is 40x the DES's ops/s.

Both record through the :class:`~repro.core.oplog.OpSink` protocol.
Because synthesis is a pure function of ``(root seed, user id)``, the
backends emit **byte-identical** op sequences (op kind, path, size) —
only ``start_us``/``response_us`` differ.  ``benchmarks/
bench_backends.py`` asserts the identity and records the measured
speedup in ``BENCH_backends.json``.

What the engine-free path gives up: queueing.  Users do not contend, so
response times carry no load dependence — Figure 5.6-style saturation
experiments need the DES.  Use ``fast-columnar`` when the *content* of
the workload is the product (trace generation, calibration loops, fleet
scale-out) and ``nfs``/``local``/``afs`` when timing is.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..nfs import NfsTiming, SUN_NFS_TIMING
from .arrivals import SessionSchedule
from .opbatch import (
    DATA_KIND_CODES,
    KIND_CREAT,
    KIND_LSEEK,
    KIND_OPEN,
    KIND_THINK,
    OpBatch,
    REFERENCE_KIND_CODES,
)
from .oplog import OpSink, SessionRecord
from .synthesis import SessionGenerator

__all__ = [
    "UserSessions",
    "ExecutionBackend",
    "DesBackend",
    "AnalyticServiceModel",
    "ColumnarReplayBackend",
]


@dataclass(frozen=True)
class UserSessions:
    """One user's work order: a synthesizer plus a session count.

    ``schedule`` (from an :class:`~repro.core.arrivals.ArrivalModel`)
    gives the user a first-login offset and per-session gaps; without
    one the user starts at clock 0 and ``inter_session_us`` separates
    sessions uniformly (the pre-arrivals behaviour).
    """

    generator: SessionGenerator
    sessions: int
    inter_session_us: float = 0.0
    schedule: SessionSchedule | None = None

    @property
    def offset_us(self) -> float:
        """The user's first-login offset (0.0 without a schedule)."""
        return self.schedule.offset_us if self.schedule is not None else 0.0

    def gap_after_us(self, session_id: int) -> float:
        """The pause after ``session_id`` ends (logout→next login).

        Gaps *separate* sessions: the one after the final session is
        never applied (0.0), so a run's duration ends with work, not
        with an idle logout tail.
        """
        if session_id + 1 >= self.sessions:
            return 0.0
        if self.schedule is not None:
            return self.schedule.gap_after(session_id)
        return self.inter_session_us


# Kind-code → bool lookup tables (indexing an int8 column through these
# is considerably faster than np.isin on the hot path).
_N_KINDS = max(max(DATA_KIND_CODES), max(REFERENCE_KIND_CODES),
               KIND_THINK, KIND_LSEEK) + 1
_DATA_MASK = np.zeros(_N_KINDS, dtype=bool)
_DATA_MASK[list(DATA_KIND_CODES)] = True
_REF_MASK = np.zeros(_N_KINDS, dtype=bool)
_REF_MASK[list(REFERENCE_KIND_CODES)] = True


class ExecutionBackend(abc.ABC):
    """Replays synthesized op streams, attaching timing and recording."""

    name: str = "abstract"

    @abc.abstractmethod
    def execute(
        self,
        tasks: Iterable[UserSessions],
        log: OpSink,
        time_limit_us: float | None = None,
    ) -> float:
        """Run every task, record into ``log``, return the duration (µs).

        ``tasks`` may be any iterable — the engine-free backend drains
        it lazily, one user at a time, so a fleet-scale run can stream
        task construction instead of materialising every user's
        generator up front.  ``time_limit_us`` truncates the run: the
        DES stops the shared engine clock at the limit, the engine-free
        backend stops each user's own clock (users are independent
        there).  The boundary rule is the same everywhere: **an op
        starting exactly at the limit is excluded** (``start >= limit``
        drops the op).  A session cut off
        by the limit records its executed ops but no session summary —
        an interrupted user never reaches its accounting epilogue.
        """


class DesBackend(ExecutionBackend):
    """Discrete-event execution on a simulated file-system client.

    ``engine`` and ``client`` come from
    :meth:`~repro.core.generator.WorkloadGenerator.build_simulation`; all
    users run concurrently and contend for the simulated resources.
    """

    name = "sim"

    def __init__(self, engine, client):
        self.engine = engine
        self.client = client

    def execute(
        self,
        tasks: Iterable[UserSessions],
        log: OpSink,
        time_limit_us: float | None = None,
    ) -> float:
        from .usim import simulated_user_process  # usim imports the sim layer

        processes = [
            self.engine.spawn(
                simulated_user_process(
                    self.engine, self.client, task, log,
                    deadline_us=time_limit_us,
                ),
                name=f"user-{task.generator.user_id}",
            )
            for task in tasks
        ]
        # Truncation, not a runaway guard: the engine stops the shared
        # clock at the limit and leaves later events unprocessed.  User
        # processes police the op-start boundary themselves (start >=
        # limit drops the op); an op still in flight at the limit never
        # completes, so it is never recorded.  Deadlocks still raise.
        self.engine.run_until_processes_finish(
            processes, limit=time_limit_us, truncate=True
        )
        return self.engine.now


class AnalyticServiceModel:
    """Mean per-call service times derived from an ``NfsTiming`` set.

    The engine-free backend applies the DES's calibrated timing parameters
    *analytically*: each call is charged the expected cost of its
    components under no contention —

    * every call pays the client's syscall overhead;
    * calls that reach the server (everything but ``lseek``) pay one RPC
      round trip (two network latencies plus header transmission) and
      the server's fixed per-op CPU cost;
    * data-moving calls additionally pay, per
      ``client.max_transfer_bytes`` page, one extra RPC round trip and
      per-op CPU charge, and per byte the network transmission, server
      CPU, and amortised disk-transfer cost.

    Deterministic by construction: no random state, so the engine-free
    path consumes exactly the same random streams as the DES path (none
    beyond synthesis).
    """

    _LOCAL_OPS = frozenset({"lseek"})
    _DATA_OPS = frozenset({"read", "write", "listdir"})

    def __init__(self, timing: NfsTiming | None = None):
        timing = timing or SUN_NFS_TIMING
        self.timing = timing
        net, disk = timing.network, timing.disk
        server, client = timing.server, timing.client
        header_bytes = net.rpc_request_bytes + net.rpc_reply_bytes
        self.syscall_us = client.syscall_overhead_us
        self.round_trip_us = (
            2.0 * net.latency_us + header_bytes / net.bandwidth_bytes_per_us
        )
        self.per_rpc_us = self.round_trip_us + server.cpu_per_op_us
        self.per_byte_us = (
            1.0 / net.bandwidth_bytes_per_us
            + server.cpu_per_byte_us
            + 1.0 / disk.transfer_bytes_per_us
        )
        self.page_bytes = max(1, client.max_transfer_bytes)

    def response_us(self, kind: str, nbytes: int = 0) -> float:
        """Expected service time of one call moving ``nbytes`` bytes."""
        if kind in self._LOCAL_OPS:
            return self.syscall_us
        cost = self.syscall_us + self.per_rpc_us
        if kind in self._DATA_OPS and nbytes > 0:
            pages = (nbytes + self.page_bytes - 1) // self.page_bytes
            cost += (pages - 1) * self.per_rpc_us + nbytes * self.per_byte_us
        return cost

    def response_us_array(self, kinds: np.ndarray,
                          sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`response_us` over kind-code/size columns.

        Bit-identical to the scalar method per element: the expression
        keeps the same operation order (base cost, then the page and
        byte terms added as one sum), so IEEE rounding matches.  Think
        rows get a zero — they are pauses, not calls.
        """
        base = self.syscall_us + self.per_rpc_us
        out = np.full(len(kinds), base, dtype=np.float64)
        out[kinds == KIND_LSEEK] = self.syscall_us
        out[kinds == KIND_THINK] = 0.0
        data = np.flatnonzero(_DATA_MASK[kinds] & (sizes > 0))
        if len(data):
            nbytes = sizes[data]
            pages = (nbytes + self.page_bytes - 1) // self.page_bytes
            out[data] = base + (
                (pages - 1) * self.per_rpc_us + nbytes * self.per_byte_us
            )
        return out


class ColumnarReplayBackend(ExecutionBackend):
    """Analytic replay: the op stream without the discrete-event engine.

    Users run one after another on independent virtual clocks (no
    cross-user queueing); each op is charged its
    :class:`AnalyticServiceModel` mean service time.  The reported
    duration is the slowest user's clock.  Per user, the work is array
    expressions over one fused batch of all its sessions:

    * service times come from
      :meth:`AnalyticServiceModel.response_us_array` in one shot;
    * ``start_us`` is one cumulative sum over the interleaved
      service/think/gap contribution column, seeded with the user's
      first-login offset, so every start equals the running clock sum;
    * a ``time_limit_us`` cutoff is one ``searchsorted`` over the
      (non-decreasing) op start column;
    * each session's executed slice goes to the sink via ``record_batch``.

    ``tests/core/scalar_reference.py`` keeps the per-op replay loop as
    the oracle these records are compared against, timing included.
    """

    name = "fast-columnar"

    def __init__(self, timing: NfsTiming | None = None,
                 model: AnalyticServiceModel | None = None):
        self.model = model or AnalyticServiceModel(timing)

    def execute(
        self,
        tasks: Iterable[UserSessions],
        log: OpSink,
        time_limit_us: float | None = None,
    ) -> float:
        duration = 0.0
        for task in tasks:
            duration = max(duration, self._run_user(task, log, time_limit_us))
        return duration

    def _run_user(self, task: UserSessions, log: OpSink,
                  limit: float | None) -> float:
        generator = task.generator
        user_id = generator.user_id
        type_name = generator.user_type.name
        offset = task.offset_us
        if limit is not None and offset >= limit:
            return min(offset, limit)
        n_sessions = task.sessions
        # One fused batch for the user's whole lifetime: service times,
        # the clock cumsum, the limit cutoff, path resolution and the
        # recorded-size rule all run once per user instead of once per
        # session.  bounds[s] is the first row of session s.
        batch, bounds = generator.generate_user_batch(range(n_sessions))
        n = len(batch)
        service = self.model.response_us_array(batch.kinds, batch.sizes)
        ends = np.asarray(bounds[1:], dtype=np.int64)
        sess_axis = np.arange(n_sessions, dtype=np.int64)
        # Interleave the clock contributions — service of op i, then its
        # think pause, with each session's logout gap spliced in after
        # its last think — and cumsum once, seeded with the user's
        # offset: np.cumsum accumulates left to right, so every op's
        # start (and every inter-session gap hop) is the running float
        # sum of the clock advanced op by op, bit for bit.  Adding the final session's
        # 0.0 gap is exact (x + 0.0 == x for the non-negative clocks).
        contrib = np.zeros(2 * n + n_sessions + 1, dtype=np.float64)
        contrib[0] = offset
        sess_of_op = batch.session_ids  # == repeat(arange, row counts)
        op_slots = 2 * np.arange(n, dtype=np.int64) + sess_of_op
        contrib[op_slots + 1] = service
        contrib[op_slots + 2] = batch.think_us
        contrib[2 * ends + sess_axis + 1] = [
            task.gap_after_us(s) for s in range(n_sessions)
        ]
        cumulative = np.cumsum(contrib)
        op_starts = cumulative[op_slots]
        session_starts = cumulative[
            2 * np.asarray(bounds[:-1], dtype=np.int64) + sess_axis]
        session_ends = cumulative[2 * ends + sess_axis]

        cut = n
        if limit is not None:
            cut = int(np.searchsorted(op_starts, limit, side="left"))

        rec = batch.select(slice(0, cut))
        rec.path_idx = self._resolved_paths(rec)
        rec.start_us = op_starts[:cut]
        rec.response_us = service[:cut]
        # The recorded size column follows apply_op_effects: data movers
        # keep their byte count, everything else records 0.
        rec.sizes = np.where(_DATA_MASK[rec.kinds], rec.sizes, 0)

        # Emit per session — the same sink event sequence (one batch and
        # one summary per executed session) the per-session path
        # produced, as zero-copy slices of the user batch.
        starts_list = session_starts.tolist()
        ends_list = session_ends.tolist()
        truncated = False
        for s in range(n_sessions):
            if limit is not None and starts_list[s] >= limit:
                # The session starts at or past the limit: no rows
                # recorded (every one starts there too), no summary.
                break
            lo, hi = bounds[s], bounds[s + 1]
            executed = hi if hi <= cut else cut
            log.record_batch(rec.select(slice(lo, executed)))
            if executed < hi or (limit is not None
                                 and ends_list[s] > limit):
                # Ops dropped, or a trailing think pushed the clock past
                # the limit: the session did not complete — its executed
                # ops are recorded but its summary is not (the DES
                # cutoff rule), and no later session starts.
                truncated = True
                break
            log.record_session(
                self._session_summary(batch.select(slice(lo, hi)), user_id,
                                      type_name, s, starts_list[s],
                                      ends_list[s])
            )
        end_clock = limit if truncated else float(cumulative[-1])
        return end_clock if limit is None else min(end_clock, limit)

    @staticmethod
    def _resolved_paths(rec: OpBatch) -> np.ndarray:
        """Fill pathless rows from their plan's open/creat row.

        The columnar equivalent of the per-op executors' ``path_by_plan``
        dict: a dense plan-id → path-index table built from the executed
        open/creat rows (every data op's open precedes it in the batch,
        so the table always covers the lookups).
        """
        path_idx = rec.path_idx
        need = np.flatnonzero((path_idx < 0) & (rec.plan_ids >= 0))
        if not len(need):
            return path_idx
        opens = np.flatnonzero(
            (rec.kinds == KIND_OPEN) | (rec.kinds == KIND_CREAT))
        if not len(opens):
            return path_idx
        open_plans = rec.plan_ids[opens]
        # Plan ids grow monotonically across a user's whole lifetime, so
        # the table is offset to this batch's own id range — its size is
        # O(plans in this session), not O(plans ever created).
        low = int(open_plans.min())
        table = np.full(int(open_plans.max()) - low + 1, -1, dtype=np.int32)
        table[open_plans - low] = path_idx[opens]
        lookup = rec.plan_ids[need] - low
        covered = (lookup >= 0) & (lookup < len(table))
        resolved = path_idx.copy()  # path_idx may be a view of the batch
        resolved[need[covered]] = table[lookup[covered]]
        return resolved

    @staticmethod
    def _session_summary(batch: OpBatch, user_id: int, type_name: str,
                         session_id: int, start_us: float,
                         end_us: float) -> SessionRecord:
        """The session's :class:`SessionRecord`, computed columnar-ly.

        Mirrors :class:`~repro.core.oplog.SessionAccounting` exactly:
        open/creat/stat rows reference a file (keeping the per-path
        maximum size), read/write/listdir rows move bytes, categories
        come from the referencing rows.
        """
        kinds = batch.kinds
        refs = np.flatnonzero(_REF_MASK[kinds])
        per_path = np.full(len(batch.paths), -1, dtype=np.int64)
        if len(refs):
            np.maximum.at(per_path, batch.path_idx[refs], batch.sizes[refs])
        seen = per_path >= 0
        data_mask = _DATA_MASK[kinds]
        category_names = batch.categories.values()
        categories = {
            category_names[i]
            for i in np.unique(batch.category_idx[refs])
            if i >= 0 and category_names[i]
        }
        return SessionRecord(
            user_id=user_id,
            user_type=type_name,
            session_id=session_id,
            start_us=start_us,
            end_us=end_us,
            files_referenced=int(seen.sum()),
            bytes_accessed=int(batch.sizes[data_mask].sum()),
            file_bytes_referenced=int(per_path[seen].sum()),
            categories=tuple(sorted(categories)),
        )
