"""The telemetry bus: one append-only event stream per cluster.

A :class:`TelemetryBus` is owned by a
:class:`~repro.cluster.machine.Cluster` (standalone components can be
wired to one by hand) and is the single source of truth for everything
observable about a run:

* per-step seconds are a fold over its ``StepBegin``/``StepEnd`` rows
  (:func:`~repro.obs.events.step_seconds`) — the bus keeps no second
  record of a step;
* every row carries the innermost step of the bus's context-scoped
  *step stack* (:meth:`step_scope`): a block I/O inside
  ``with bus.step_scope("1:local-sort")`` is recorded as that step's,
  and :func:`~repro.obs.audit.collect_step_io` folds those rows into
  per-(step, node) I/O;
* exporters and the bounds auditor consume :attr:`events` after a run.

Capture levels keep the always-on default cheap: ``"steps"`` records
only step/barrier/fault/retry events (what ``step_seconds`` needs),
``"io"`` adds block I/O and network transfers (exporters, audit),
``"full"`` adds compute charges and memory reserve/release.  Levels only
gate what is *stored*; the per-step I/O a run reports,
:attr:`~repro.faults.recovery.StepRunner.step_io`, is recorded at every
level.

Storage: :attr:`TelemetryBus.events` is an
:class:`~repro.obs.events.EventLog`.  A ``record_*`` call appends one row
tuple ``(cls, *fields)`` and builds no event object (unless someone
subscribed); the log reads as a ``Sequence[Event]``, objects on access.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    Compute,
    Event,
    EventLog,
    FaultInjected,
    MemRelease,
    MemReserve,
    NetTransfer,
    Retry,
    Row,
    StepBegin,
    StepEnd,
    event_row,
    row_event,
)

#: Capture levels, cheapest first; each includes everything before it.
LEVELS: tuple[str, ...] = ("steps", "io", "full")


class TelemetryBus:
    """Append-only, SimClock-stamped event stream with step attribution."""

    def __init__(self, level: str = "steps") -> None:
        self.events = EventLog()
        self._level = 0
        self.set_level(level)
        self._step_stack: list[str] = []
        #: Innermost active step name, ``""`` outside any step.
        self.current_step = ""
        self._subscribers: list[Callable[[Event], None]] = []

    # -- capture level -----------------------------------------------------

    @property
    def level(self) -> str:
        return LEVELS[self._level]

    def set_level(self, level: str) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown capture level {level!r}, expected one of {LEVELS}")
        self._level = LEVELS.index(level)
        # Plain attributes: producers read them once per block / reservation.
        #: True when block I/O and network events are recorded.
        self.captures_io = self._level >= 1
        #: True when memory reserve/release events are recorded.
        self.captures_memory = self._level >= 2
        #: True when charged CPU work is recorded (profiler replay input).
        self.captures_compute = self._level >= 2

    # -- step attribution --------------------------------------------------

    @contextmanager
    def step_scope(self, name: str) -> Iterator[None]:
        """Attribute every event emitted inside the body to ``name``."""
        self._step_stack.append(name)
        self.current_step = name
        try:
            yield
        finally:
            self._step_stack.pop()
            self.current_step = self._step_stack[-1] if self._step_stack else ""

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Drop all events; the capture level is kept."""
        self.events.rows.clear()
        self._step_stack.clear()
        self.current_step = ""

    def subscribe(self, fn: Callable[[Event], None]) -> None:
        """Call ``fn`` with every event as it is emitted (live consumers)."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        self._subscribers.remove(fn)

    def emit(self, event: Event) -> None:
        """Publish a prebuilt event object (stored, like every event, as a row)."""
        self._emit_row(event_row(event), event)

    def _emit_row(self, row: Row, event: Optional[Event] = None) -> None:
        self.events.rows.append(row)
        if self._subscribers:
            event = event or row_event(row)
            for fn in list(self._subscribers):
                fn(event)

    # -- typed recorders (the only emit sites components should use) -------
    # Each builds its class's row directly: (cls, t, node, step, *own fields).

    def record_step_begin(self, name: str, node: int, t: float) -> None:
        self._emit_row((StepBegin, t, node, name))

    def record_step_end(self, name: str, node: int, t_start: float, t_end: float) -> None:
        self._emit_row((StepEnd, t_end, node, name, t_end - t_start))

    def record_barrier_wait(self, name: str, node: int, t: float, wait: float) -> None:
        self._emit_row((BarrierWait, t, node, name, wait))

    def record_block_io(
        self,
        op: str,
        *,
        disk: str,
        node: int,
        t: float,
        n_items: int,
        itemsize: int,
        cost: float,
        queued: float = -1.0,
        stream: str = "",
        offset: int = -1,
    ) -> None:
        if not self.captures_io:
            return
        cls = BlockRead if op == "read" else BlockWrite
        step = self.current_step
        self._emit_row((cls, t, node, step, disk, n_items, itemsize, cost, queued, stream, offset))

    def record_rows(self, rows: list[Row]) -> None:
        """Append a disk batch's prebuilt rows (block I/O, and reservations
        at level ``full``), in order; the charging kernel built them and
        checked the level."""
        if self._subscribers:
            for row in rows:
                self._emit_row(row)
        else:
            self.events.rows.extend(rows)

    def record_compute(
        self, *, node: int, t: float, seconds: float, ops: float
    ) -> None:
        """Record charged CPU work; consecutive same-node charges coalesce.

        Compute charges arrive in tight per-chunk loops; merging a charge
        into a same-node, same-step ``Compute`` row at the stream tail
        keeps the stream bounded by the node interleaving, not the chunk
        count.  Coalesced merges do not re-notify subscribers.
        """
        if not self.captures_compute:
            return
        rows = self.events.rows
        step = self.current_step
        if rows:
            prev = rows[-1]
            if prev[0] is Compute and prev[2] == node and prev[3] == step:
                rows[-1] = (Compute, t, node, step, prev[4] + seconds, prev[5] + ops)
                return
        self._emit_row((Compute, t, node, step, seconds, ops))

    def record_net_transfer(
        self, *, src: int, dst: int, t_end: float, nbytes: int, duration: float
    ) -> None:
        if not self.captures_io:
            return
        self._emit_row((NetTransfer, t_end, src, self.current_step, src, dst, nbytes, duration))

    def record_mem(self, op: str, *, node: int, t: float, n_items: int, in_use: int) -> None:
        if not self.captures_memory:
            return
        cls = MemReserve if op == "reserve" else MemRelease
        self._emit_row((cls, t, node, self.current_step, n_items, in_use))

    def record_fault(self, category: str, *, node: int, t: float, detail: str = "") -> None:
        """Faults are recorded at every capture level (rare and load-bearing)."""
        self._emit_row((FaultInjected, t, node, self.current_step, category, detail))

    def record_retry(
        self, name: str, *, node: int, t: float, attempt: int, backoff: float
    ) -> None:
        self._emit_row((Retry, t, node, name, attempt, backoff))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TelemetryBus(level={self.level!r}, {len(self.events)} events)"
