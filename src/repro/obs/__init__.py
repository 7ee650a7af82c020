"""Unified observability layer: telemetry bus, exporters, bounds audit.

Every instrumented component (:class:`~repro.pdm.disk.SimDisk`,
:class:`~repro.cluster.network.Network`,
:class:`~repro.pdm.memory.MemoryManager`, the fault injector and the
barrier-delimited cluster steps) publishes typed, SimClock-stamped
events onto one :class:`~repro.obs.bus.TelemetryBus` per cluster.
Per-step seconds (:func:`~repro.obs.events.step_seconds`) and, from
capture level ``io`` up, per-(step, node) block I/O
(:func:`~repro.obs.audit.collect_step_io`) are folds over this stream;
the per-step I/O recorded at every level is
:attr:`~repro.faults.recovery.StepRunner.step_io`.

On top of the stream:

* :mod:`repro.obs.exporters` — JSONL event log, Chrome-trace/Perfetto
  JSON, Prometheus-style text snapshot;
* :mod:`repro.obs.audit` — fold the stream into per-step, per-node I/O
  counters and check them against the paper's Algorithm-1 bounds.

See ``docs/OBSERVABILITY.md`` for the event taxonomy and formats.
"""

from repro.obs.bus import TelemetryBus
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
    StepBegin,
    StepEnd,
    event_from_dict,
)

__all__ = [
    "BarrierWait",
    "BlockRead",
    "BlockWrite",
    "Event",
    "EventLog",
    "FaultInjected",
    "MemRelease",
    "MemReserve",
    "NetTransfer",
    "Retry",
    "StepBegin",
    "StepEnd",
    "TelemetryBus",
    "event_from_dict",
]
