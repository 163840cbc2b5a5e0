"""Columnar operation streams — the op stream as parallel NumPy arrays.

A scalar op stream is a sequence of :class:`~repro.core.synthesis.
SessionOp` / :class:`~repro.core.oplog.OpRecord` dataclasses; at fleet
scale the per-object allocation and per-field attribute access dominate
an engine-free replay's runtime.  :class:`OpBatch` stores the same stream as
a struct-of-arrays: one int8 *kind code* per operation, int64
``plan_id``/``size`` columns, float64 timing columns, and small interned
string tables for paths, category keys and user-type names (string
columns hold int32 indices into those tables, ``-1`` meaning "absent").

The batch is the unit the columnar pipeline moves around:

* :meth:`repro.core.synthesis.SessionGenerator.generate_user_batch`
  produces one batch per user, all its sessions fused (timing columns
  zero);
* :class:`repro.core.execution.ColumnarReplayBackend` fills
  ``start_us``/``response_us`` with one array expression and hands the
  executed slice to the sink;
* sinks that implement ``record_batch`` (:class:`~repro.core.oplog.
  UsageLog`, :class:`~repro.fleet.merge.WorkloadTally`,
  :class:`~repro.fleet.merge.ShardAccumulator`) fold whole batches with
  ``np.bincount``-style reductions; everything else receives the batch
  through the :meth:`to_records` bridge, one record at a time.

Determinism: a batch is a *representation*, never a re-sampling.  The
bridges (:meth:`to_records`, :meth:`from_records`,
:meth:`iter_session_ops`) are exact inverses of the per-op structures,
which ``tests/core/test_opbatch.py`` pins down.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..vfs import OpenFlags
from .oplog import OpRecord

__all__ = [
    "OP_KIND_NAMES",
    "OP_KIND_CODES",
    "KIND_OPEN",
    "KIND_CREAT",
    "KIND_READ",
    "KIND_WRITE",
    "KIND_LSEEK",
    "KIND_CLOSE",
    "KIND_UNLINK",
    "KIND_STAT",
    "KIND_LISTDIR",
    "KIND_THINK",
    "DATA_KIND_CODES",
    "REFERENCE_KIND_CODES",
    "StringTable",
    "OpBatch",
]

OP_KIND_NAMES: tuple[str, ...] = (
    "open", "creat", "read", "write", "lseek", "close", "unlink", "stat",
    "listdir", "think",
)
"""Canonical op-kind order; the int8 code of a kind is its index here."""

OP_KIND_CODES: dict[str, int] = {name: i for i, name in enumerate(OP_KIND_NAMES)}

(
    KIND_OPEN,
    KIND_CREAT,
    KIND_READ,
    KIND_WRITE,
    KIND_LSEEK,
    KIND_CLOSE,
    KIND_UNLINK,
    KIND_STAT,
    KIND_LISTDIR,
    KIND_THINK,
) = range(len(OP_KIND_NAMES))

DATA_KIND_CODES: tuple[int, ...] = (KIND_READ, KIND_WRITE, KIND_LISTDIR)
"""Kinds whose ``size`` is bytes actually moved (recorded as-is)."""

# Kinds that reference a file for session accounting (open/creat/stat).
REFERENCE_KIND_CODES: tuple[int, ...] = (KIND_OPEN, KIND_CREAT, KIND_STAT)

_KIND_NAME_ARRAY = np.array(OP_KIND_NAMES)


class StringTable:
    """An append-only string interner: string ↔ dense int32 index."""

    __slots__ = ("_values", "_index")

    def __init__(self, values: Iterable[str] = ()):
        self._values: list[str] = list(values)
        self._index: dict[str, int] = {
            value: i for i, value in enumerate(self._values)
        }

    def intern(self, value: "str | None") -> int:
        """Index of ``value`` (appending it on first sight); None → -1."""
        if value is None:
            return -1
        idx = self._index.get(value)
        if idx is None:
            idx = len(self._values)
            self._values.append(value)
            self._index[value] = idx
        return idx

    def intern_many(self, values: Sequence[str]) -> np.ndarray:
        """Intern a whole sequence in one call; returns the int32 indices.

        One bound-method dispatch for a session's (or user's) entire path
        vocabulary instead of one :meth:`intern` call per op — the
        batched interning the columnar plan builder uses.  Append order
        (first sight wins) is identical to sequential ``intern`` calls.
        """
        index = self._index
        table = self._values
        out = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            idx = index.get(value)
            if idx is None:
                idx = len(table)
                table.append(value)
                index[value] = idx
            out[i] = idx
        return out

    def lookup(self, idx: int) -> "str | None":
        """Inverse of :meth:`intern` (−1 → None)."""
        if idx < 0:
            return None
        return self._values[idx]

    def values(self) -> list[str]:
        """The interned strings, in index order."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)


class OpBatch:
    """One op stream as parallel arrays plus interned string tables.

    All columns have the same length.  ``plan_ids``, ``path_idx``,
    ``category_idx`` and ``user_type_idx`` use ``-1`` for "absent"
    (``None`` in the scalar structures).  Slicing (:meth:`select`)
    shares the string tables with the parent batch — indices stay valid
    because tables are append-only.
    """

    __slots__ = (
        "kinds", "plan_ids", "sizes", "flags", "path_idx", "category_idx",
        "user_ids", "session_ids", "user_type_idx", "start_us",
        "response_us", "think_us", "paths", "categories", "user_types",
    )

    def __init__(
        self,
        kinds: np.ndarray,
        plan_ids: np.ndarray,
        sizes: np.ndarray,
        flags: np.ndarray,
        path_idx: np.ndarray,
        category_idx: np.ndarray,
        user_ids: np.ndarray,
        session_ids: np.ndarray,
        user_type_idx: np.ndarray,
        start_us: np.ndarray,
        response_us: np.ndarray,
        paths: StringTable,
        categories: StringTable,
        user_types: StringTable,
        think_us: "np.ndarray | None" = None,
    ):
        self.kinds = kinds                  # int8 kind codes
        self.plan_ids = plan_ids            # int64, -1 = None
        self.sizes = sizes                  # int64
        self.flags = flags                  # int16 OpenFlags values
        self.path_idx = path_idx            # int32 into paths, -1 = None
        self.category_idx = category_idx    # int32 into categories, -1 = None
        self.user_ids = user_ids            # int64
        self.session_ids = session_ids      # int64
        self.user_type_idx = user_type_idx  # int32 into user_types
        self.start_us = start_us            # float64
        self.response_us = response_us      # float64
        # Synthesis-produced batches carry the think pause *after* each
        # op as a parallel int64 column rather than interleaved rows:
        # half the rows to gather/time, and record batches (which never
        # contain thinks) stay a 1:1 image of OpRecord lists.
        self.think_us = think_us
        self.paths = paths
        self.categories = categories
        self.user_types = user_types

    def __len__(self) -> int:
        return len(self.kinds)

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(
        cls,
        n: int,
        paths: "StringTable | None" = None,
        categories: "StringTable | None" = None,
        user_types: "StringTable | None" = None,
    ) -> "OpBatch":
        """An uninitialised batch of ``n`` rows (caller fills every column)."""
        return cls(
            kinds=np.empty(n, dtype=np.int8),
            plan_ids=np.empty(n, dtype=np.int64),
            sizes=np.empty(n, dtype=np.int64),
            flags=np.empty(n, dtype=np.int16),
            path_idx=np.empty(n, dtype=np.int32),
            category_idx=np.empty(n, dtype=np.int32),
            user_ids=np.empty(n, dtype=np.int64),
            session_ids=np.empty(n, dtype=np.int64),
            user_type_idx=np.empty(n, dtype=np.int32),
            start_us=np.zeros(n, dtype=np.float64),
            response_us=np.zeros(n, dtype=np.float64),
            paths=paths if paths is not None else StringTable(),
            categories=categories if categories is not None else StringTable(),
            user_types=user_types if user_types is not None else StringTable(),
        )

    @classmethod
    def from_records(cls, records: Sequence[OpRecord]) -> "OpBatch":
        """Columnarise a sequence of :class:`OpRecord` (inverse of
        :meth:`to_records`; think rows cannot appear in records)."""
        n = len(records)
        batch = cls.empty(n)
        paths, categories, user_types = (
            batch.paths, batch.categories, batch.user_types
        )
        for i, record in enumerate(records):
            batch.kinds[i] = OP_KIND_CODES[record.op]
            batch.plan_ids[i] = -1
            batch.sizes[i] = record.size
            batch.flags[i] = 0
            batch.path_idx[i] = paths.intern(record.path)
            batch.category_idx[i] = categories.intern(record.category_key)
            batch.user_ids[i] = record.user_id
            batch.session_ids[i] = record.session_id
            batch.user_type_idx[i] = user_types.intern(record.user_type)
            batch.start_us[i] = record.start_us
            batch.response_us[i] = record.response_us
        return batch

    # -- slicing ---------------------------------------------------------------

    def select(self, index) -> "OpBatch":
        """Row subset (slice, boolean mask or integer indices).

        String tables are shared; a slice index yields column *views*,
        fancy indices copy (NumPy semantics).
        """
        return OpBatch(
            kinds=self.kinds[index],
            plan_ids=self.plan_ids[index],
            sizes=self.sizes[index],
            flags=self.flags[index],
            path_idx=self.path_idx[index],
            category_idx=self.category_idx[index],
            user_ids=self.user_ids[index],
            session_ids=self.session_ids[index],
            user_type_idx=self.user_type_idx[index],
            start_us=self.start_us[index],
            response_us=self.response_us[index],
            think_us=(self.think_us[index] if self.think_us is not None
                      else None),
            paths=self.paths,
            categories=self.categories,
            user_types=self.user_types,
        )

    # -- bridges ---------------------------------------------------------------

    def kind_names(self) -> np.ndarray:
        """The kind column as strings (diagnostics and tests)."""
        return _KIND_NAME_ARRAY[self.kinds]

    def to_records(self) -> list[OpRecord]:
        """Bridge to scalar :class:`OpRecord` rows (1:1 with op rows;
        the ``think_us`` column, if any, is not part of records).

        ``-1`` string indices become ``""`` (the :class:`OpRecord`
        convention).
        """
        paths = self.paths.values()
        categories = self.categories.values()
        user_types = self.user_types.values()
        return [
            OpRecord(
                user_id=int(self.user_ids[i]),
                user_type=user_types[ti] if (ti := int(self.user_type_idx[i])) >= 0 else "",
                session_id=int(self.session_ids[i]),
                op=OP_KIND_NAMES[self.kinds[i]],
                path=paths[pi] if (pi := int(self.path_idx[i])) >= 0 else "",
                category_key=categories[ci] if (ci := int(self.category_idx[i])) >= 0 else "",
                size=int(self.sizes[i]),
                start_us=float(self.start_us[i]),
                response_us=float(self.response_us[i]),
            )
            for i in range(len(self))
        ]

    def iter_session_ops(self) -> Iterator:
        """The batch as :class:`~repro.core.synthesis.SessionOp`\\ s.

        Each op is followed by its think op (from the ``think_us``
        column); absent strings/plan ids become ``None`` and flags
        become ``OpenFlags`` values.  This is how
        :meth:`~repro.core.synthesis.SessionGenerator.generate_session`
        serves the kernel's batch to the per-op executors.
        """
        from .synthesis import SessionOp  # cycle: synthesis imports opbatch

        paths = self.paths.values()
        categories = self.categories.values()
        think = self.think_us
        for i in range(len(self)):
            plan_id = int(self.plan_ids[i])
            path_i = int(self.path_idx[i])
            cat_i = int(self.category_idx[i])
            yield SessionOp(
                kind=OP_KIND_NAMES[self.kinds[i]],
                plan_id=plan_id if plan_id >= 0 else None,
                path=paths[path_i] if path_i >= 0 else None,
                category_key=categories[cat_i] if cat_i >= 0 else None,
                size=int(self.sizes[i]),
                flags=OpenFlags(int(self.flags[i])),
            )
            if think is not None:
                yield SessionOp("think", size=int(think[i]))
