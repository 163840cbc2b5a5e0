"""Deterministic fault injection for fleet runs (tests and chaos CI).

The determinism dividend of the paper's fixed-seed design is that failed
work can be re-executed byte-identically — but that property is only
trustworthy if it is *exercised*.  ``repro.faults`` makes failure a
first-class, reproducible input: a :class:`FaultSpec` names a shard, an
attempt number, and a trigger point, and the fleet layer arms exactly
those faults in exactly those workers.  Because every fault is plain
data (picklable, parseable from a CLI string), a chaos run is as
reproducible as a clean one — the same spec always dies in the same
place.

Fault kinds:

* ``kill`` — the worker process calls ``os._exit`` after forwarding
  exactly ``row`` op rows: a hard crash, no cleanup, no exception.
* ``stall`` — the worker sleeps ``seconds`` at ``row``: a hang, caught
  only by the supervisor's progress deadline.
* ``error`` — an :class:`InjectedFault` exception raised at ``row``:
  the catchable-failure path.
* ``enospc`` — ``OSError(ENOSPC)`` raised by the stream spill path when
  it is about to flush chunk ``chunk`` (fed through the
  ``flush_hook`` of :class:`~repro.core.streamfile.StreamWriter`).
* ``bitflip`` — one byte of the shard's finished stream artifact is
  XOR-flipped after close: silent corruption, caught only by CRC
  verification.

Faults fire on one attempt only (``attempt``, default 1), so a retried
or resumed shard runs clean — which is what lets the chaos tests assert
bit-for-bit recovery.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "FaultError",
    "InjectedFault",
    "FaultSpec",
    "parse_fault",
    "random_faults",
    "FaultInjector",
    "build_injector",
]

FAULT_KINDS = ("kill", "stall", "error", "enospc", "bitflip")

KILL_EXIT_CODE = 66
"""Exit code of a ``kill``-faulted worker (distinguishable from signals)."""


class FaultError(ValueError):
    """A fault specification is malformed or inconsistent."""


class InjectedFault(RuntimeError):
    """The exception an ``error`` fault raises inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure: what dies, where, and on which attempt."""

    kind: str
    shard: int
    attempt: int = 1
    row: int | None = None
    chunk: int | None = None
    seconds: float = 3600.0
    offset: int | None = None  # bitflip byte offset (default: mid-file)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.shard < 0:
            raise FaultError(f"fault shard must be >= 0, got {self.shard}")
        if self.attempt < 1:
            raise FaultError(f"fault attempt must be >= 1, got {self.attempt}")
        if self.kind in ("kill", "stall", "error"):
            if self.row is None or self.row < 1:
                raise FaultError(
                    f"{self.kind} fault needs row >= 1, got {self.row}"
                )
        if self.kind == "enospc" and (self.chunk is None or self.chunk < 0):
            raise FaultError(
                f"enospc fault needs chunk >= 0, got {self.chunk}"
            )
        if self.kind == "stall" and not self.seconds > 0:
            raise FaultError(
                f"stall fault needs seconds > 0, got {self.seconds}"
            )

    @property
    def needs_stream(self) -> bool:
        """Whether this fault only makes sense with an op-stream artifact."""
        return self.kind in ("enospc", "bitflip")

    @property
    def needs_isolation(self) -> bool:
        """Whether this fault must run in a disposable worker process."""
        return self.kind in ("kill", "stall")

    def describe(self) -> str:
        """The canonical ``kind:key=value,...`` rendering."""
        parts = [f"shard={self.shard}"]
        if self.row is not None:
            parts.append(f"row={self.row}")
        if self.chunk is not None:
            parts.append(f"chunk={self.chunk}")
        if self.kind == "stall":
            parts.append(f"seconds={self.seconds:g}")
        if self.offset is not None:
            parts.append(f"offset={self.offset}")
        if self.attempt != 1:
            parts.append(f"attempt={self.attempt}")
        return f"{self.kind}:" + ",".join(parts)


_INT_KEYS = ("shard", "attempt", "row", "chunk", "offset")


def parse_fault(text: str) -> FaultSpec:
    """Parse ``kind:key=value,...`` (the ``--inject-fault`` syntax).

    Examples: ``kill:shard=0,row=120`` — crash shard 0's worker after
    120 op rows; ``enospc:shard=1,chunk=2`` — fail shard 1's third
    chunk flush with ENOSPC; ``stall:shard=0,row=10,seconds=30``;
    ``bitflip:shard=2``; append ``attempt=2`` to fire on the retry.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    kwargs: dict = {}
    if rest.strip():
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise FaultError(
                    f"bad fault field {part!r} in {text!r} "
                    "(want key=value)"
                )
            if key not in _INT_KEYS + ("seconds",):
                raise FaultError(f"unknown fault field {key!r} in {text!r}")
            try:
                kwargs[key] = (float(value) if key == "seconds"
                               else int(value))
            except ValueError:
                raise FaultError(
                    f"bad value {value!r} for fault field {key!r}"
                ) from None
    if "shard" not in kwargs:
        raise FaultError(f"fault {text!r} needs a shard=N field")
    return FaultSpec(kind=kind, **kwargs)


def random_faults(seed: int, n_shards: int, max_row: int,
                  kinds: Sequence[str] = ("kill",),
                  count: int = 1) -> tuple[FaultSpec, ...]:
    """A deterministic, seed-driven fault set (the chaos-test generator).

    Draws ``count`` faults from ``numpy.random.default_rng(seed)``:
    each picks a shard, a kind, and a trigger row in ``[1, max_row]``.
    The same seed always yields the same failures.
    """
    import numpy as np

    if max_row < 1:
        raise FaultError(f"max_row must be >= 1, got {max_row}")
    # detlint: ignore[no-global-rng] — explicit per-call seed; fault draws never touch run streams
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        shard = int(rng.integers(0, n_shards))
        row = int(rng.integers(1, max_row + 1))
        if kind == "enospc":
            out.append(FaultSpec(kind=kind, shard=shard, chunk=int(
                rng.integers(0, 4))))
        elif kind == "bitflip":
            out.append(FaultSpec(kind=kind, shard=shard))
        else:
            out.append(FaultSpec(kind=kind, shard=shard, row=row,
                                 seconds=3600.0))
    return tuple(out)


class _FaultSink:
    """Sink wrapper counting forwarded op rows and firing row faults.

    Rows *before* the trigger are forwarded, then the fault fires — so
    ``kill:row=N`` means exactly N rows reached the downstream sinks,
    which is what makes chunk-flush interactions reproducible.
    """

    def __init__(self, inner, triggers: "list[FaultSpec]"):
        self.inner = inner
        self._triggers = sorted(triggers, key=lambda s: s.row)
        self._rows = 0

    def _fire(self, spec: FaultSpec) -> None:
        if spec.kind == "kill":
            # A hard crash: no exception, no cleanup, no flush of any
            # userspace buffer — exactly what SIGKILL or a panic leaves.
            os._exit(KILL_EXIT_CODE)
        if spec.kind == "stall":
            time.sleep(spec.seconds)
            return
        raise InjectedFault(
            f"injected failure at op row {spec.row} (shard fault "
            f"{spec.describe()!r})"
        )

    def record_op(self, record) -> None:
        self.inner.record_op(record)
        self._rows += 1
        while self._triggers and self._rows >= self._triggers[0].row:
            self._fire(self._triggers.pop(0))

    def record_batch(self, batch) -> None:
        while self._triggers and self._rows + len(batch) >= \
                self._triggers[0].row:
            spec = self._triggers.pop(0)
            cut = spec.row - self._rows
            self.inner.record_batch(batch.select(slice(0, cut)))
            self._rows += cut
            batch = batch.select(slice(cut, len(batch)))
            self._fire(spec)
        if len(batch):
            self.inner.record_batch(batch)
            self._rows += len(batch)

    def record_session(self, record) -> None:
        self.inner.record_session(record)


class FaultInjector:
    """The faults armed for one ``(shard, attempt)`` execution."""

    def __init__(self, specs: Iterable[FaultSpec]):
        self.specs = list(specs)
        self._row_faults = [s for s in self.specs
                            if s.kind in ("kill", "stall", "error")]
        self._enospc = [s for s in self.specs if s.kind == "enospc"]
        self._bitflips = [s for s in self.specs if s.kind == "bitflip"]

    def wrap_sink(self, sink):
        """Arm row-triggered faults around ``sink`` (or return it as-is)."""
        if not self._row_faults:
            return sink
        return _FaultSink(sink, list(self._row_faults))

    @property
    def spill_hook(self):
        """The ``flush_hook`` for the stream writer, or None."""
        if not self._enospc:
            return None

        def hook(chunk_index: int) -> None:
            for spec in list(self._enospc):
                if chunk_index == spec.chunk:
                    self._enospc.remove(spec)
                    raise OSError(
                        errno.ENOSPC,
                        f"injected ENOSPC at chunk flush {chunk_index} "
                        f"({spec.describe()!r})",
                    )

        return hook

    def corrupt_artifact(self, path: str) -> bool:
        """Apply any armed bitflip to the finished artifact at ``path``."""
        flipped = False
        for spec in self._bitflips:
            size = os.path.getsize(path)
            if size == 0:
                continue
            offset = spec.offset if spec.offset is not None else size // 2
            offset = min(max(offset, 0), size - 1)
            with open(path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)
                fh.seek(offset)
                fh.write(bytes((byte[0] ^ 0xFF,)))
            flipped = True
        return flipped


def build_injector(specs: Iterable[FaultSpec], shard: int,
                   attempt: int) -> FaultInjector | None:
    """The injector for this shard execution, or None when nothing fires."""
    active = [s for s in specs if s.shard == shard and s.attempt == attempt]
    if not active:
        return None
    return FaultInjector(active)
