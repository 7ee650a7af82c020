"""Event-stream exporters: JSONL log, Chrome trace, Prometheus text.

Three machine-readable renderings of one
:class:`~repro.obs.bus.TelemetryBus` stream:

* **JSONL** — one JSON object per line; an optional first ``run_meta``
  line carries the run parameters the bounds auditor needs, so a saved
  log replays with ``repro audit run.jsonl``.
* **Chrome trace** — the ``traceEvents`` JSON format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev: one process (pid)
  per node, one thread (tid) per track (steps, barrier, each disk, net,
  faults), complete (``"X"``) spans in microseconds.
* **Prometheus text** — a counter snapshot in the exposition format,
  for diffing runs or scraping from a wrapper service.

All timestamps are simulated seconds from the bus; the Chrome exporter
converts to microseconds (the format's unit) and emits spans sorted by
start time, so ``ts`` is non-decreasing across the file.

The JSONL and Chrome exporters read the rows of an
:class:`~repro.obs.events.EventLog` (``EventLog.of`` wraps any other
iterable) and build no event object and no JSON document: each line or
span is a per-kind text template filled with its values' JSON text,
byte for byte what ``json.dumps`` writes for it (:class:`_Text`).  The
Chrome file is one line with ``json.dumps``' default separators;
``python -m json.tool`` indents it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    FIELD_NAMES,
    Event,
    EventLog,
    FaultInjected,
    MemRelease,
    MemReserve,
    NetTransfer,
    Retry,
    StepEnd,
    row_event,
    row_from_dict,
)
from repro.obs.profiler.timeline import merge_intervals

#: pid used in Chrome traces for cluster-wide events (``node == -1``).
CLUSTER_PID = 10_000

_US = 1e6  # seconds -> microseconds


# -- value text ---------------------------------------------------------------


def _template(record: Mapping[str, object]) -> str:
    """``json.dumps(record)`` with each ``"%s"`` value left as ``%s``."""
    return json.dumps(record).replace('"%s"', "%s")


class _StrText(dict):
    """String -> its JSON text, encoded once per distinct string."""

    __slots__ = ()

    def __missing__(self, value: str) -> str:
        text = self[value] = json.dumps(value)
        return text


class _FloatText(dict):
    """Finite float -> its JSON text, which is its ``repr``.

    ``inf`` and ``nan`` raise ``KeyError`` (JSON spells them
    ``Infinity``/``NaN``).  Zero is never stored: ``0.0`` and ``-0.0``
    are one dict key but two texts.
    """

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        if value - value != 0:
            raise KeyError(value)
        text = repr(value)
        if value:
            self[value] = text
        return text


class _Text:
    """Fills text templates with the JSON text of values, a column at a time.

    One per export, so its caches hold each distinct string and each
    distinct finite non-zero float of that export once.
    """

    def __init__(self) -> None:
        #: Exact type -> the function giving a value's JSON text: only the
        #: types whose text is their ``repr`` or a cached ``json.dumps``.
        #: A bool, ``None``, a numpy scalar — or ``inf``/``nan`` — is a
        #: ``KeyError``.
        self.of_type: dict[type, Callable[[Any], str]] = {
            str: _StrText().__getitem__,
            int: int.__repr__,
            float: _FloatText().__getitem__,
        }

    def fill(
        self,
        template: str,
        rows: Sequence[Any],
        columns: Iterable[Sequence[Any]],
        reference: Callable[[Any], str],
    ) -> list[str]:
        """``template % values`` of each row, every value as its JSON text.

        ``columns`` holds the rows' values column by column.  A column of
        one type is encoded in one pass (an int column as it is: ``%s``
        prints an int as JSON does), any other value by value.  A row
        holding a value ``repr`` spells unlike JSON is written by
        ``reference(row)`` instead.
        """
        cells: list[Sequence[Any]] = []
        odd: set[int] = set()
        for column in columns:
            kinds = set(map(type, column))
            if kinds == {int}:
                cells.append(column)
                continue
            if len(kinds) == 1:
                try:
                    cells.append(list(map(self.of_type[kinds.pop()], column)))
                    continue
                except KeyError:  # not a listed type, or inf/nan in the column
                    pass
            texts = []
            for j, value in enumerate(column):
                try:
                    texts.append(self.of_type[type(value)](value))
                except KeyError:
                    texts.append("")
                    odd.add(j)
            cells.append(texts)
        lines = list(map(template.__mod__, zip(*cells)))
        for j in odd:
            lines[j] = reference(rows[j])
        return lines


# -- JSONL ------------------------------------------------------------------


#: The reference encoding of each class, ``%s`` in place of every value.
_LINE_TEMPLATES = {
    cls: _template({"kind": cls.kind, **dict.fromkeys(names, "%s")})
    for cls, names in FIELD_NAMES.items()
}


def _reference_line(row: tuple) -> str:
    return json.dumps(row_event(row).to_dict())


def events_to_jsonl(
    events: Iterable[Event], meta: Optional[Mapping[str, object]] = None
) -> str:
    """Serialise events (and an optional leading run_meta line) to JSONL.

    Each row is its class's line template filled with its values, byte
    for byte what the reference ``json.dumps(e.to_dict())`` writes: the
    rows of one class are encoded column by column, strings and finite
    non-zero floats once per distinct value, and a row holding a value
    ``repr`` spells unlike JSON (inf, nan, a bool, ``None``, a numpy
    scalar) goes to the reference encoder.
    """
    lines = []
    if meta is not None:
        record = {"kind": "run_meta"}
        record.update(meta)
        lines.append(json.dumps(record))
    rows = EventLog.of(events).rows
    at_of: dict[type, list[int]] = defaultdict(list)  # class -> its rows' indices
    for i, row in enumerate(rows):
        at_of[row[0]].append(i)
    body = [""] * len(rows)
    text = _Text()
    for cls, at in at_of.items():
        group = [rows[i] for i in at]
        columns = list(zip(*group))[1:]
        for i, line in zip(at, text.fill(_LINE_TEMPLATES[cls], group, columns, _reference_line)):
            body[i] = line
    lines.extend(body)
    return "\n".join(lines) + "\n"


def write_jsonl(
    path: str, events: Iterable[Event], meta: Optional[Mapping[str, object]] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(events_to_jsonl(events, meta))


def read_jsonl(path: str) -> tuple[Optional[dict], EventLog]:
    """Parse a JSONL event log; returns ``(run_meta or None, events)``."""
    meta: Optional[dict] = None
    events = EventLog()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("kind") == "run_meta":
                meta = {k: v for k, v in data.items() if k != "kind"}
            else:
                events.rows.append(row_from_dict(data))
    return meta, events


# -- Chrome trace -----------------------------------------------------------


class _Span:
    """One kind of trace entry, written from a text template.

    ``build`` returns the entry as the reference dict; ``template`` is
    that dict's JSON text with ``%s`` for each of ``build``'s parameters,
    which the dict must use in parameter order; ``ts_at`` indexes the
    ``ts`` parameter, the entry's sort key.
    """

    def __init__(self, build: Callable[..., dict]) -> None:
        code = build.__code__
        self.build = build
        self.template = _template(build(*["%s"] * code.co_argcount))
        self.ts_at = code.co_varnames.index("ts")

    def reference(self, values: tuple) -> str:
        return json.dumps(self.build(*values))


@_Span
def _x_span(name, cat, ts, dur, pid, tid) -> dict:  # a step or a barrier wait
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid,
            "args": {}}


@_Span
def _io_span(name, ts, dur, pid, tid, items, itemsize, step) -> dict:
    return {"name": name, "cat": "io", "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid,
            "args": {"items": items, "itemsize": itemsize, "step": step}}


@_Span
def _net_span(name, ts, dur, pid, tid, nbytes, step) -> dict:
    return {"name": name, "cat": "net", "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid,
            "args": {"bytes": nbytes, "step": step}}


@_Span
def _flow_start(flow, ts, pid, tid) -> dict:
    return {"name": "msg", "cat": "net", "ph": "s", "id": flow, "ts": ts, "pid": pid, "tid": tid}


@_Span
def _flow_end(flow, ts, pid, tid) -> dict:
    return {"name": "msg", "cat": "net", "ph": "f", "bp": "e", "id": flow, "ts": ts, "pid": pid,
            "tid": tid}


@_Span
def _mem_counter(ts, pid, items) -> dict:
    return {"name": "mem_in_use", "cat": "mem", "ph": "C", "ts": ts, "pid": pid,
            "args": {"items": items}}


@_Span
def _fault_instant(name, ts, pid, tid, detail, step) -> dict:
    return {"name": name, "cat": "fault", "ph": "i", "ts": ts, "pid": pid, "tid": tid, "s": "t",
            "args": {"detail": detail, "step": step}}


@_Span
def _retry_instant(name, ts, pid, tid, attempt, backoff) -> dict:
    return {"name": name, "cat": "fault", "ph": "i", "ts": ts, "pid": pid, "tid": tid, "s": "t",
            "args": {"attempt": attempt, "backoff": backoff}}


@_Span
def _critical_span(name, ts, dur, pid, tid, step) -> dict:
    return {"name": name, "cat": "critical", "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "args": {"step": step}}


def _chrome_trace_text(
    events: Sequence[Event],
    node_names: Optional[Mapping[int, str]] = None,
    critical: Optional[Sequence] = None,
) -> str:
    """The text :func:`write_chrome_trace` writes, without the newline.

    It is byte for byte ``json.dumps`` of the document: the spans of one
    kind are its template filled column by column (a span holding a
    value ``repr`` spells unlike JSON is ``json.dumps`` of its dict),
    then all spans are ordered by a stable sort on their ``ts``.
    """
    names = dict(node_names or {})
    tids: dict[tuple[int, str], int] = {}
    process_meta: dict[int, dict] = {}
    thread_meta: list[dict] = []
    starts: list[Any] = []  # each span's ts, in emission order
    at_of: dict[_Span, list[int]] = defaultdict(list)  # kind -> its spans' indices
    values_of: dict[_Span, list[tuple]] = defaultdict(list)

    def emit(kind: _Span, *values: Any) -> None:
        at_of[kind].append(len(starts))
        starts.append(values[kind.ts_at])
        values_of[kind].append(values)

    def ensure_process(node: int) -> int:
        pid = node if node >= 0 else CLUSTER_PID
        if pid not in process_meta:
            name = names.get(node, f"node{node}") if node >= 0 else "cluster"
            process_meta[pid] = {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": name},
            }
        return pid

    def tid_of(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tid = sum(1 for p, _ in tids if p == pid)
            tids[key] = tid
            thread_meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tids[key]

    flow_id = 0
    for row in EventLog.of(events).rows:
        cls, t, node, step = row[:4]
        pid = ensure_process(node)
        if cls is MemReserve or cls is MemRelease:
            emit(_mem_counter, t * _US, pid, row[5])  # in_use
        elif cls is BlockRead or cls is BlockWrite:
            disk, n_items, itemsize, cost, queued = row[4:9]
            # The drive's busy interval, not the node's: a write-behind
            # write is stamped with its issue time and served later.
            start = queued if queued >= 0.0 else t - cost
            tid = tid_of(pid, f"disk:{disk}")
            op = "read" if cls is BlockRead else "write"
            emit(_io_span, op, start * _US, cost * _US, pid, tid, n_items, itemsize, step)
        elif cls is StepEnd:
            duration = row[4]
            start = t - duration
            tid = tid_of(pid, "steps")
            emit(_x_span, step, "step", start * _US, duration * _US, pid, tid)
        elif cls is BarrierWait:
            wait = row[4]
            tid = tid_of(pid, "barrier")
            emit(_x_span, f"wait:{step}", "barrier", (t - wait) * _US, wait * _US, pid, tid)
        elif cls is NetTransfer:
            src, dst, nbytes, duration = row[4:]
            flow_id += 1
            start = t - duration
            tid = tid_of(pid, "net")
            emit(_net_span, f"send->{dst}", start * _US, duration * _US, pid, tid, nbytes, step)
            dst_pid = ensure_process(dst)
            dst_tid = tid_of(dst_pid, "net")
            emit(_net_span, f"recv<-{src}", start * _US, duration * _US, dst_pid, dst_tid,
                 nbytes, step)
            # Flow arrow linking the send to its receive: the start
            # binds inside the send span, the end (bp: "e") binds to
            # the end of the enclosing recv span.
            emit(_flow_start, flow_id, start * _US, pid, tid)
            emit(_flow_end, flow_id, t * _US, dst_pid, dst_tid)
        elif cls is FaultInjected:
            emit(_fault_instant, f"fault:{row[4]}", t * _US, pid, tid_of(pid, "faults"),
                 row[5], step)
        elif cls is Retry:
            emit(_retry_instant, f"retry:{step}", t * _US, pid, tid_of(pid, "faults"),
                 row[4], row[5])
        # StepBegin carries no information a StepEnd span doesn't.

    for seg in critical or ():
        pid = ensure_process(seg.node)
        tid = tid_of(pid, "critical path")
        emit(_critical_span, seg.kind, seg.t0 * _US, (seg.t1 - seg.t0) * _US, pid, tid, seg.step)

    spans = [""] * len(starts)
    text = _Text()
    for kind, rows in values_of.items():
        for i, span in zip(at_of[kind], text.fill(kind.template, rows, zip(*rows), kind.reference)):
            spans[i] = span
    order = sorted(range(len(starts)), key=starts.__getitem__)  # stable: ties keep emission order
    entries = [json.dumps(process_meta[pid]) for pid in sorted(process_meta)]
    entries.extend(map(json.dumps, thread_meta))
    entries.extend(map(spans.__getitem__, order))
    return '{"traceEvents": [' + ", ".join(entries) + '], "displayTimeUnit": "ms"}'


def to_chrome_trace(
    events: Sequence[Event],
    node_names: Optional[Mapping[int, str]] = None,
    critical: Optional[Sequence] = None,
) -> dict:
    """The document :func:`write_chrome_trace` writes, parsed."""
    return json.loads(_chrome_trace_text(events, node_names, critical))


def write_chrome_trace(
    path: str,
    events: Sequence[Event],
    node_names: Optional[Mapping[int, str]] = None,
    critical: Optional[Sequence] = None,
) -> None:
    """Write an event stream as a Chrome-trace/Perfetto JSON file.

    Layout: pid = node rank (``CLUSTER_PID`` for node -1), tid = track
    within the node — ``steps`` and ``barrier`` first, then one track
    per disk, ``net``, and ``faults``.  Step/barrier/IO/net events
    become complete (``X``) spans whose ``ts`` is the *start* time
    (event timestamps are completion times; an ``io`` span is the
    drive's busy interval ``[queued, queued + cost]``); memory events
    become ``C`` counter samples; faults and retries become instants (``i``).

    Each ``NetTransfer`` renders on *both* ends — a ``send->dst`` span
    on the sender's net track and a ``recv<-src`` span on the
    receiver's — joined by a flow (``ph: "s"``/``"f"``) arrow, so the
    message's causal hop is visible across node tracks in Perfetto.

    ``critical`` optionally takes the segments of a
    :class:`~repro.obs.profiler.critical.CriticalPath` (any iterable of
    objects with ``node``/``t0``/``t1``/``kind``/``step``); they render
    as a ``critical path`` track on each node, highlighting which spans
    gate the run end-to-end.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_chrome_trace_text(events, node_names, critical))
        fh.write("\n")


# -- Prometheus text --------------------------------------------------------


def _metric(v: object) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def to_prometheus(events: Iterable[Event]) -> str:
    """Fold an event stream into a Prometheus-exposition-format snapshot."""
    counters: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    kinds: dict[str, tuple[str, str]] = {}
    #: (node, disk) -> raw drive-timeline busy intervals, merged at the
    #: end into true occupancy (write-behind queues the drive while the
    #: node runs ahead, so summed service time != wall occupancy).
    busy_iv: dict[tuple[str, str], list[tuple[float, float]]] = {}

    def add(name, labels, value, mtype, help_text) -> None:
        kinds[name] = (mtype, help_text)
        series = counters.setdefault(name, {})
        key = tuple(sorted(labels.items()))
        series[key] = series.get(key, 0.0) + value

    def put(name, labels, value, mtype, help_text) -> None:
        kinds[name] = (mtype, help_text)
        series = counters.setdefault(name, {})
        key = tuple(sorted(labels.items()))
        series[key] = max(series.get(key, 0.0), value)

    for e in events:
        node = str(e.node)
        if isinstance(e, (BlockRead, BlockWrite)):
            op = "read" if isinstance(e, BlockRead) else "write"
            lab = {"node": node, "disk": e.disk}
            add(f"repro_blocks_{op}_total", lab, 1, "counter",
                f"Block {op}s charged on simulated disks")
            add(f"repro_items_{op}_total", lab, e.n_items, "counter",
                f"Items moved by block {op}s")
            add("repro_io_busy_seconds_total", lab, e.cost, "counter",
                "Simulated disk service time")
            queued = e.queued if e.queued >= 0.0 else e.t - e.cost
            busy_iv.setdefault((node, e.disk), []).append((queued, queued + e.cost))
        elif isinstance(e, NetTransfer):
            lab = {"src": str(e.src), "dst": str(e.dst)}
            add("repro_net_messages_total", lab, 1, "counter",
                "Point-to-point messages sent")
            add("repro_net_bytes_total", lab, e.nbytes, "counter",
                "Payload bytes sent")
        elif isinstance(e, StepEnd):
            add("repro_step_busy_seconds_total", {"step": e.step, "node": node},
                e.duration, "counter", "Per-node busy time inside each step")
        elif isinstance(e, BarrierWait):
            add("repro_barrier_wait_seconds_total", {"step": e.step, "node": node},
                e.wait, "counter", "Per-node idle time at step exit barriers")
            add("repro_node_barrier_wait_seconds_total", {"node": node},
                e.wait, "counter", "Per-node idle time across all barriers")
        elif isinstance(e, (MemReserve, MemRelease)):
            put("repro_mem_in_use_peak_items", {"node": node}, e.in_use,
                "gauge", "Peak observed in-core reservation")
        elif isinstance(e, FaultInjected):
            add("repro_faults_total", {"category": e.category}, 1, "counter",
                "Injected faults that fired")
        elif isinstance(e, Retry):
            add("repro_retries_total", {"step": e.step}, 1, "counter",
                "Step attempts re-run after transient faults")

    for (node, disk), intervals in busy_iv.items():
        occupancy = sum(t1 - t0 for t0, t1 in merge_intervals(intervals))
        add("repro_drive_busy_seconds_total", {"node": node, "disk": disk},
            occupancy, "counter",
            "Wall-clock drive occupancy from the kernel's per-drive timeline")

    lines: list[str] = []
    for name in sorted(counters):
        mtype, help_text = kinds[name]
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for key in sorted(counters[name]):
            label_text = ",".join(f'{k}="{v}"' for k, v in key)
            lines.append(f"{name}{{{label_text}}} {_metric(counters[name][key])}")
    return "\n".join(lines) + "\n"
