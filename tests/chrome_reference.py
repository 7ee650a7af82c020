"""The dict-building Chrome-trace exporter, kept as the oracle.

``repro.obs.exporters.write_chrome_trace`` formats each span straight to
text; ``json.dumps(reference_chrome_trace(...))`` plus a newline is what
that file must equal byte for byte (``tests/test_chrome_oracle.py``).
This is the exporter's body as it was before the text templates, kept
unchanged: one dict per span, sorted by ``ts``, handed to the encoder.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    Event,
    EventLog,
    FaultInjected,
    MemRelease,
    MemReserve,
    NetTransfer,
    Retry,
    StepEnd,
)
from repro.obs.exporters import CLUSTER_PID

_US = 1e6  # seconds -> microseconds


def reference_chrome_trace(
    events: Sequence[Event],
    node_names: Optional[Mapping[int, str]] = None,
    critical: Optional[Sequence] = None,
) -> dict:
    """The Chrome-trace document as one dict per span (see the module doc)."""
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
