"""Outside-in layer tracer: exclusive CPU self time per layer.

The tracer patches public entry points of the program's modules with
timing wrappers and keeps a span stack.  Every clock interval is charged
to the innermost open span only, so the layers' self times partition the
traced region: their sum plus the root's self time (reported as
``trace.unattributed_s``) equals the region's CPU time exactly.

Three kinds of hook:

* ``call`` -- a span around one call of a function or method;
* ``iter`` -- for an entry point that returns a generator, a span around
  each resumption of the returned generator.  The work of a generator
  happens while it is iterated, after the call has returned, so timing
  the call alone would record almost nothing;
* ``count`` -- no span, only a call count (for hot, cheap calls whose
  time belongs to their caller).

A span entered while the innermost open span already belongs to the same
layer merges into it (``ShardAccumulator.record_batch`` calling
``WorkloadTally.record_batch`` is one sink call, not two).

``remove()`` restores every patched attribute, so code that runs after a
traced region executes the unmodified program.  Spans stay in memory;
the caller reads ``self_s`` / ``calls`` when the region ends.
"""

from __future__ import annotations

import functools
import importlib
import time

ROOT = "trace.root"

# One hook per (module, attribute path): the layer each public entry
# point belongs to, and how it is hooked.  A module-level function is
# hooked where the benchmark's caller looks it up: ``fleet.runner``
# imports ``merge_stream_files`` by name and holds its own reference.
HOOKS = (
    ("repro.core.generator", "WorkloadGenerator.create_file_system",
     "generator.plan", "call"),
    ("repro.core.generator", "WorkloadGenerator.iter_synthesized_users",
     "synthesis.users", "iter"),
    ("repro.core.synthesis", "SessionGenerator.generate_user_batch",
     "synthesis.batch", "call"),
    ("repro.core.synthesis", "SessionGenerator.generate_session",
     "synthesis.scalar", "iter"),
    ("repro.core.synthesis", "SessionGenerator.rebind_user",
     "synthesis.rebind", "call"),
    ("repro.distributions.rng", "RandomStreams.get", "rng.get", "call"),
    ("repro.core.arrivals", "ArrivalModel.schedule", "arrivals.schedule",
     "call"),
    ("repro.core.execution", "ColumnarReplayBackend.execute",
     "execution.columnar", "call"),
    ("repro.core.execution", "DesBackend.execute", "execution.des", "call"),
    ("repro.sim.engine", "Engine.schedule", "sim.events", "count"),
    ("repro.fleet.merge", "WorkloadTally.record_batch", "sink.tally", "call"),
    ("repro.fleet.merge", "WorkloadTally.record_session", "sink.tally",
     "call"),
    ("repro.fleet.merge", "WorkloadTally.record_op", "sink.tally", "call"),
    ("repro.fleet.merge", "ShardAccumulator.record_batch", "sink.tally",
     "call"),
    ("repro.fleet.merge", "ShardAccumulator.record_session", "sink.tally",
     "call"),
    ("repro.fleet.merge", "ShardAccumulator.record_op", "sink.tally", "call"),
    ("repro.core.streamfile", "StreamFileSink.record_batch",
     "streamfile.encode", "call"),
    ("repro.core.streamfile", "StreamFileSink.record_session",
     "streamfile.encode", "call"),
    ("repro.core.streamfile", "StreamFileSink.close", "streamfile.encode",
     "call"),
    ("repro.fleet.runner", "merge_stream_files", "streamfile.merge", "call"),
    ("repro.core.streamfile", "StreamReader.read_chunk", "streamfile.decode",
     "call"),
    ("repro.core.streamfile", "StreamReader.replay", "streamfile.replay",
     "call"),
    ("repro.fleet.runner", "run_fleet", "fleet.driver", "call"),
)


def layers(kinds) -> tuple[str, ...]:
    """The layers hooked with one of ``kinds``, in ``HOOKS`` order."""
    return tuple(dict.fromkeys(layer for _, _, layer, kind in HOOKS
                               if kind in kinds))


class Tracer:
    """Span stack over a CPU clock; see the module docstring.

    ``clock`` is injectable so tests can drive a toy call tree with a
    fake clock and check the accounting exactly.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.total_s = 0.0
        self._stack: list[str] = []
        self._last = 0.0
        self._started = 0.0
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- accounting ---------------------------------------------------------

    def _charge(self) -> None:
        now = self.clock()
        top = self._stack[-1]
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._last)
        self._last = now

    def start(self) -> None:
        """Open the root span: the traced region begins now."""
        if self._stack:
            raise RuntimeError("tracer already started")
        self._stack = [ROOT]
        self._started = self._last = self.clock()

    def stop(self) -> None:
        """Close the root span; ``total_s`` is the region's clock time."""
        if self._stack != [ROOT]:
            raise RuntimeError(f"unbalanced spans at stop: {self._stack}")
        self._charge()
        self._stack = []
        self.total_s = self._last - self._started

    def enter(self, layer: str) -> bool:
        """Open a span for ``layer``; False when it merged into its parent."""
        if not self._stack or self._stack[-1] == layer:
            return False
        self._charge()
        self._stack.append(layer)
        return True

    def leave(self) -> None:
        """Close the innermost span."""
        self._charge()
        self._stack.pop()

    def count(self, layer: str) -> None:
        """Count one call of ``layer`` (inside a started region only)."""
        if self._stack:
            self.calls[layer] = self.calls.get(layer, 0) + 1

    # -- wrappers -------------------------------------------------------------

    def wrap_call(self, fn, layer: str):
        """``fn`` with a span around each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enter(layer):
                return fn(*args, **kwargs)
            self.count(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return traced

    def wrap_iter(self, fn, layer: str):
        """``fn`` (generator-returning) with a span around each resumption."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(layer)
            return self._iterate(fn(*args, **kwargs), layer)
        return traced

    def _iterate(self, inner, layer: str):
        try:
            while True:
                opened = self.enter(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if opened:
                        self.leave()
                yield item
        finally:
            inner.close()

    def wrap_count(self, fn, layer: str):
        """``fn`` with a call counter and no span."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(layer)
            return fn(*args, **kwargs)
        return counted

    # -- patching ---------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, kind: str) -> None:
        """Replace ``owner.attr`` with its ``kind`` wrapper."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        wrap = {"call": self.wrap_call, "iter": self.wrap_iter,
                "count": self.wrap_count}[kind]
        setattr(owner, attr, wrap(original, layer))
        self._patches.append((owner, attr, had_own, original))

    def install(self) -> None:
        """Patch every entry point in ``HOOKS``."""
        for module_name, path, layer, kind in HOOKS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = functools.reduce(getattr, owner_path, owner)
            self.patch(owner, attr, layer, kind)

    def remove(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                # The attribute was inherited; drop the override so the
                # lookup reaches the base class again.
                delattr(owner, attr)
