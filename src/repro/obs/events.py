"""Typed telemetry events.

Every event is a frozen, keyword-only dataclass carrying the three
attribution fields the whole observability layer is built on:

``t``
    Simulated time (seconds) at which the event *completed*, read from
    the owning node's :class:`~repro.cluster.simclock.VirtualClock`.
``node``
    Rank of the node the event belongs to; ``-1`` for cluster-wide
    events with no single owner (e.g. a retry backoff charged to every
    participant).
``step``
    The algorithm step active when the event fired (the bus's
    context-scoped attribution stack), ``""`` outside any step.

Events serialise losslessly to flat JSON objects (``to_dict`` /
:func:`event_from_dict`), which is what the JSONL exporter writes and
the ``repro audit`` replay reads back.

``StepBegin``/``StepEnd`` are the one record of a step;
:func:`step_intervals` and :func:`step_seconds` at the bottom read them
back into per-node intervals and per-step seconds.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields
from operator import eq
from typing import Any, ClassVar, Optional, Union, overload


@dataclass(frozen=True, kw_only=True)
class Event:
    """Base of every telemetry event (time + node + step attribution)."""

    kind: ClassVar[str] = "event"

    t: float
    node: int
    step: str

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-ready mapping; ``kind`` discriminates the type."""
        out: dict[str, object] = {"kind": type(self).kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True, kw_only=True)
class StepBegin(Event):
    """A node entered a barrier-delimited algorithm step."""

    kind: ClassVar[str] = "step_begin"


@dataclass(frozen=True, kw_only=True)
class StepEnd(Event):
    """A node finished its work inside a step (before the exit barrier)."""

    kind: ClassVar[str] = "step_end"

    duration: float


@dataclass(frozen=True, kw_only=True)
class BarrierWait(Event):
    """Idle time a node spent at a step's exit barrier."""

    kind: ClassVar[str] = "barrier_wait"

    wait: float


@dataclass(frozen=True, kw_only=True)
class BlockRead(Event):
    """One charged block read on a simulated disk.

    ``queued`` is the drive-timeline *service start* of the access (the
    drive is busy over ``[queued, queued + cost]``); ``-1.0`` in logs
    predating the profiler means "unknown, assume ``t - cost``".
    ``stream`` / ``offset`` identify the access as block ``offset`` of
    file ``stream`` (how the event kernel detects sequential
    continuation), ``""`` / ``-1`` when not stream-addressed.
    """

    kind: ClassVar[str] = "block_read"

    disk: str
    n_items: int
    itemsize: int
    cost: float
    queued: float = -1.0
    stream: str = ""
    offset: int = -1


@dataclass(frozen=True, kw_only=True)
class BlockWrite(Event):
    """One charged block write on a simulated disk.

    Same drive-timeline fields as :class:`BlockRead`.  Under the event
    kernel ``t`` is the *issue* time (write-behind does not block the
    node) while ``[queued, queued + cost]`` is when the drive is busy.
    """

    kind: ClassVar[str] = "block_write"

    disk: str
    n_items: int
    itemsize: int
    cost: float
    queued: float = -1.0
    stream: str = ""
    offset: int = -1


@dataclass(frozen=True, kw_only=True)
class NetTransfer(Event):
    """One point-to-point message (``node`` is the sending rank)."""

    kind: ClassVar[str] = "net_transfer"

    src: int
    dst: int
    nbytes: int
    duration: float


@dataclass(frozen=True, kw_only=True)
class Compute(Event):
    """Charged CPU work on a node's clock (capture level ``"full"``).

    ``seconds`` is the simulated clock advance (already scaled by the
    node's speed); ``ops`` is the abstract operation count it was
    charged for, so a replay can re-scale the same work under a
    different perf vector.  Consecutive charges on one node inside one
    step are coalesced by the bus into a single event ending at the
    last charge.
    """

    kind: ClassVar[str] = "compute"

    seconds: float
    ops: float


@dataclass(frozen=True, kw_only=True)
class MemReserve(Event):
    """Items pinned in a node's internal-memory budget."""

    kind: ClassVar[str] = "mem_reserve"

    n_items: int
    in_use: int


@dataclass(frozen=True, kw_only=True)
class MemRelease(Event):
    """Items unpinned from a node's internal-memory budget."""

    kind: ClassVar[str] = "mem_release"

    n_items: int
    in_use: int


@dataclass(frozen=True, kw_only=True)
class FaultInjected(Event):
    """An injected fault fired (disk, network, drop, delay, node kill)."""

    kind: ClassVar[str] = "fault_injected"

    category: str
    detail: str


@dataclass(frozen=True, kw_only=True)
class Retry(Event):
    """A step attempt failed on a transient fault and will be re-run."""

    kind: ClassVar[str] = "retry"

    attempt: int
    backoff: float


#: Registry mapping the JSON ``kind`` discriminator back to its class.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        StepBegin,
        StepEnd,
        BarrierWait,
        BlockRead,
        BlockWrite,
        NetTransfer,
        Compute,
        MemReserve,
        MemRelease,
        FaultInjected,
        Retry,
    )
}


#: One stored event: ``(cls, *field values)``, in the order ``fields(cls)``
#: gives — the one place the row layout is stated.
Row = tuple[Any, ...]

FIELD_NAMES: dict[type[Event], tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in EVENT_TYPES.values()
}


def event_row(event: Event) -> Row:
    cls = type(event)
    return (cls, *[getattr(event, name) for name in FIELD_NAMES[cls]])


def row_event(row: Row) -> Event:
    cls: type[Event] = row[0]
    return cls(**dict(zip(FIELD_NAMES[cls], row[1:])))


class EventLog(Sequence[Event]):
    """An event stream held as rows, read as a sequence of events.

    The bus appends one tuple per event; bulk consumers (exporters, audit
    fold, timeline builder) read :attr:`rows` and dispatch on ``row[0]``.
    Everyone else sees a ``Sequence[Event]`` that builds an equal frozen
    object per access and keeps none: cached beside the rows, a run's
    objects cost more resident memory than the rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Optional[list[Row]] = None) -> None:
        self.rows: list[Row] = [] if rows is None else rows

    @staticmethod
    def of(events: Iterable[Event]) -> "EventLog":
        """``events`` itself if it is a log, else a log of its rows."""
        if isinstance(events, EventLog):
            return events
        return EventLog([event_row(e) for e in events])

    def __len__(self) -> int:
        return len(self.rows)

    @overload
    def __getitem__(self, index: int) -> Event: ...
    @overload
    def __getitem__(self, index: slice) -> "EventLog": ...
    def __getitem__(self, index: Union[int, slice]) -> Union[Event, "EventLog"]:
        if isinstance(index, slice):
            return EventLog(self.rows[index])
        return row_event(self.rows[index])

    def __iter__(self) -> Iterator[Event]:
        return map(row_event, self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            return self.rows == other.rows
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.rows) and all(map(eq, self, other))
        return NotImplemented


def event_from_dict(data: Mapping[str, object]) -> Event:
    """Inverse of :meth:`Event.to_dict` (used by the JSONL replay)."""
    return row_event(row_from_dict(data))


def row_from_dict(data: Mapping[str, object]) -> Row:
    """The row of a decoded JSONL line."""
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in EVENT_TYPES:
        raise ValueError(f"unknown event kind {kind!r}")
    cls = EVENT_TYPES[kind]
    row: list[object] = [cls]
    for f in fields(cls):
        if f.name in data:
            row.append(data[f.name])
        elif f.default is MISSING:
            # Defaulted fields may be absent (logs written before the
            # field existed deserialise with the default).
            raise ValueError(f"event {kind!r} is missing field {f.name!r}")
        else:
            row.append(f.default)
    return tuple(row)


# -- the step record: StepBegin/StepEnd rows, read back ------------------------

#: One node's completed interval inside one execution of a step.
Interval = tuple[float, float]


def step_intervals(events: Iterable[Event]) -> dict[str, list[dict[int, Interval]]]:
    """``step -> executions -> node -> (t_start, t_end)`` of a stream.

    One execution is one run of consecutive ``StepBegin`` rows of the
    step — a step re-entered in degraded mode executes twice.  Each
    ``StepEnd`` is paired with the latest ``StepBegin`` of its (step,
    node), which carries the exact start.  An attempt that raised left
    no ends and is not listed: only completed intervals are timed.
    """
    out: dict[str, list[dict[int, Interval]]] = {}
    begun: dict[tuple[str, int], tuple[float, dict[int, Interval]]] = {}
    entering = ""
    execution: dict[int, Interval] = {}
    for row in EventLog.of(events).rows:
        cls = row[0]
        if cls is StepBegin:
            _, t, node, step = row
            if step != entering:
                entering, execution = step, {}
            begun[(step, node)] = (t, execution)
            continue
        entering = ""
        if cls is StepEnd:
            _, t, node, step, _ = row
            paired = begun.get((step, node))
            if paired is None or t < paired[0]:
                raise ValueError(
                    f"StepEnd of {step!r} on node {node} at t={t}: no StepBegin at or before it"
                )
            start, ended = paired
            if not ended:
                out.setdefault(step, []).append(ended)
            ended[node] = (start, t)
    return out


def step_seconds(events: Iterable[Event]) -> dict[str, float]:
    """Step -> simulated seconds, steps ordered by when they first start.

    An execution lasts from its first node's start to its last node's
    end (barrier to barrier under the lockstep kernel); a step that
    executed more than once reports the sum of its executions, not the
    hull around them.
    """
    totals: dict[str, float] = {}
    hulls: dict[str, Interval] = {}
    for step, executions in step_intervals(events).items():
        spans = [
            (min(t0 for t0, _ in ex.values()), max(t1 for _, t1 in ex.values()))
            for ex in executions
        ]
        totals[step] = sum(t1 - t0 for t0, t1 in spans)
        hulls[step] = (min(t0 for t0, _ in spans), max(t1 for _, t1 in spans))
    return {step: totals[step] for step in sorted(hulls, key=hulls.__getitem__)}
