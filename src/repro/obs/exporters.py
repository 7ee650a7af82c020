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
iterable) and build no event object.  The Chrome file is compact JSON
from one encoder call; ``python -m json.tool`` indents it.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional, Sequence

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


# -- JSONL ------------------------------------------------------------------


#: The reference encoding of each class, ``%s`` in place of every value.
_LINE_TEMPLATES = {
    cls: json.dumps({"kind": cls.kind, **dict.fromkeys(names, "%s")}).replace('"%s"', "%s")
    for cls, names in FIELD_NAMES.items()
}


def events_to_jsonl(
    events: Iterable[Event], meta: Optional[Mapping[str, object]] = None
) -> str:
    """Serialise events (and an optional leading run_meta line) to JSONL.

    Each row is formatted through its class's line template, byte for
    byte what the reference ``json.dumps(e.to_dict())`` writes: strings
    are JSON-encoded once per distinct value, ints and finite floats
    print by ``repr`` exactly as JSON prints them.
    """
    lines = []
    if meta is not None:
        record = {"kind": "run_meta"}
        record.update(meta)
        lines.append(json.dumps(record))
    text: dict[str, str] = {}  # string value -> its JSON text
    for row in EventLog.of(events).rows:
        cells = []
        for v in row[1:]:
            if type(v) is str:
                cells.append(text.get(v) or text.setdefault(v, json.dumps(v)))
            elif type(v) in (int, float) and v - v == 0:  # exactly these, and finite
                cells.append(repr(v))
            else:  # inf, nan, a bool, None, a numpy scalar: the reference encoder
                lines.append(json.dumps(row_event(row).to_dict()))
                break
        else:
            lines.append(_LINE_TEMPLATES[row[0]] % tuple(cells))
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


def to_chrome_trace(
    events: Sequence[Event],
    node_names: Optional[Mapping[int, str]] = None,
    critical: Optional[Sequence] = None,
) -> dict:
    """Fold an event stream into a Chrome-trace/Perfetto JSON object.

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
    names = dict(node_names or {})
    tids: dict[tuple[int, str], int] = {}
    process_meta: dict[int, dict] = {}
    thread_meta: list[dict] = []
    spans: list[dict] = []

    def pid_of(node: int) -> int:
        return node if node >= 0 else CLUSTER_PID

    def ensure_process(node: int) -> int:
        pid = pid_of(node)
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

    def span(name, cat, ts, dur, pid, tid, args) -> dict:
        return {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts * _US,
            "dur": dur * _US,
            "pid": pid,
            "tid": tid,
            "args": args,
        }

    flow_id = 0
    for row in EventLog.of(events).rows:
        cls, t, node, step = row[:4]
        pid = ensure_process(node)
        if cls is StepEnd:
            duration = row[4]
            spans.append(span(step, "step", t - duration, duration, pid, tid_of(pid, "steps"), {}))
        elif cls is BarrierWait:
            wait = row[4]
            tid = tid_of(pid, "barrier")
            spans.append(span(f"wait:{step}", "barrier", t - wait, wait, pid, tid, {}))
        elif cls is BlockRead or cls is BlockWrite:
            disk, n_items, itemsize, cost, queued = row[4:9]
            args = {"items": n_items, "itemsize": itemsize, "step": step}
            op = "read" if cls is BlockRead else "write"
            # The drive's busy interval, not the node's: a write-behind
            # write is stamped with its issue time and served later.
            start = queued if queued >= 0.0 else t - cost
            spans.append(span(op, "io", start, cost, pid, tid_of(pid, f"disk:{disk}"), args))
        elif cls is NetTransfer:
            src, dst, nbytes, duration = row[4:]
            flow_id += 1
            start = t - duration
            args = {"bytes": nbytes, "step": step}
            tid = tid_of(pid, "net")
            spans.append(span(f"send->{dst}", "net", start, duration, pid, tid, args))
            dst_pid = ensure_process(dst)
            dst_tid = tid_of(dst_pid, "net")
            spans.append(span(f"recv<-{src}", "net", start, duration, dst_pid, dst_tid, args))
            # Flow arrow linking the send to its receive: the start
            # binds inside the send span, the end (bp: "e") binds to
            # the end of the enclosing recv span.
            spans.append(
                {
                    "name": "msg",
                    "cat": "net",
                    "ph": "s",
                    "id": flow_id,
                    "ts": start * _US,
                    "pid": pid,
                    "tid": tid,
                }
            )
            spans.append(
                {
                    "name": "msg",
                    "cat": "net",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": t * _US,
                    "pid": dst_pid,
                    "tid": dst_tid,
                }
            )
        elif cls is MemReserve or cls is MemRelease:
            spans.append(
                {
                    "name": "mem_in_use",
                    "cat": "mem",
                    "ph": "C",
                    "ts": t * _US,
                    "pid": pid,
                    "args": {"items": row[5]},  # in_use
                }
            )
        elif cls is FaultInjected or cls is Retry:
            if cls is FaultInjected:
                name, args = f"fault:{row[4]}", {"detail": row[5], "step": step}
            else:
                name, args = f"retry:{step}", {"attempt": row[4], "backoff": row[5]}
            spans.append(
                {
                    "name": name,
                    "cat": "fault",
                    "ph": "i",
                    "ts": t * _US,
                    "pid": pid,
                    "tid": tid_of(pid, "faults"),
                    "s": "t",
                    "args": args,
                }
            )
        # StepBegin carries no information a StepEnd span doesn't.

    for seg in critical or ():
        pid = ensure_process(seg.node)
        tid = tid_of(pid, "critical path")
        spans.append(
            span(
                seg.kind,
                "critical",
                seg.t0,
                seg.t1 - seg.t0,
                pid,
                tid,
                {"step": seg.step},
            )
        )

    spans.sort(key=lambda s: s["ts"])  # stable: ties keep emission order
    trace_events = [process_meta[pid] for pid in sorted(process_meta)]
    trace_events.extend(thread_meta)
    trace_events.extend(spans)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    events: Sequence[Event],
    node_names: Optional[Mapping[int, str]] = None,
    critical: Optional[Sequence] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(to_chrome_trace(events, node_names, critical=critical)))
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
