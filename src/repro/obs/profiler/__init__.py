"""Causal critical-path profiler with what-if speedup prediction.

Entry point: :class:`RunProfile` — build one from a live cluster's bus
(:meth:`RunProfile.from_cluster`) or from a saved JSONL log's events +
``run_meta`` (:func:`profile_from_jsonl_meta`), then read:

* ``profile.timeline`` — per-node segment tilings (happens-before DAG
  flattened onto each node's clock, causal links on waits);
* ``profile.critical`` — the critical path; its total equals the run's
  elapsed time whenever the walk completes;
* ``profile.blame`` — per-(step, node) compute/disk/net/barrier split,
  per-step time skew and the run-level straggler index;
* ``profile.what_if("disks=4")`` — predicted elapsed under a change.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.cluster.machine import Cluster, homogeneous_cluster
from repro.obs.events import Event, EventLog
from repro.obs.profiler.blame import BlameReport, StepBlame, blame_report
from repro.obs.profiler.critical import CriticalPath, critical_path
from repro.obs.profiler.model import (
    COMPONENT_OF,
    COMPONENTS,
    BarrierGroup,
    HardwareMeta,
    Segment,
)
from repro.obs.profiler.replay import replay
from repro.obs.profiler.timeline import Timeline, build_timeline, merge_intervals
from repro.obs.profiler.whatif import WhatIfError, WhatIfResult, predict

__all__ = [
    "BarrierGroup",
    "BlameReport",
    "COMPONENTS",
    "COMPONENT_OF",
    "CriticalPath",
    "HardwareMeta",
    "RunProfile",
    "Segment",
    "StepBlame",
    "Timeline",
    "WhatIfError",
    "WhatIfResult",
    "blame_report",
    "build_timeline",
    "critical_path",
    "merge_intervals",
    "predict",
    "profile_from_jsonl_meta",
    "replay",
]


class RunProfile:
    """One recorded run, reconstructed and ready for questioning."""

    def __init__(
        self,
        events: Iterable[Event],
        hw: Optional[HardwareMeta] = None,
        block_items: Optional[int] = None,
    ) -> None:
        #: A snapshot: later emits on a live bus are not seen.
        self.events = EventLog(list(EventLog.of(events).rows))
        self.block_items = block_items
        self.timeline = build_timeline(self.events, hw)
        #: A log with no machine record replays on stock nodes.
        self.hw = hw or HardwareMeta(homogeneous_cluster(max(self.timeline.n_nodes, 1)))
        self.critical = critical_path(self.timeline)
        self.blame = blame_report(self.timeline)

    @staticmethod
    def from_cluster(
        cluster: Cluster, block_items: Optional[int] = None
    ) -> "RunProfile":
        """Profile a just-finished run straight off its cluster's bus."""
        return RunProfile(
            cluster.bus.events,
            hw=HardwareMeta.from_cluster(cluster),
            block_items=block_items,
        )

    @property
    def elapsed(self) -> float:
        return self.timeline.elapsed

    def baseline_replay(self) -> float:
        """Elapsed time of a replay on the run's own machine (fidelity check)."""
        return replay(self.events, self.hw, self.hw.spec)

    def what_if(self, spec: str) -> WhatIfResult:
        """Predicted elapsed time under a hypothetical change."""
        return predict(
            self.events,
            self.hw,
            spec,
            recorded_elapsed=self.elapsed,
            block_items=self.block_items,
        )

    def to_dict(self) -> dict:
        """JSON-ready report (what the CLI's ``--format json`` prints)."""
        return {
            "elapsed_seconds": self.elapsed,
            "n_nodes": self.timeline.n_nodes,
            "capture_has_compute": self.timeline.has_compute,
            "critical_path": self.critical.to_dict(),
            "blame": self.blame.to_dict(),
            "drive_busy_seconds": {
                f"{node}:{disk}": sum(t1 - t0 for t0, t1 in intervals)
                for (node, disk), intervals in self.timeline.drive_busy.items()
            },
        }


def profile_from_jsonl_meta(
    meta: Optional[Mapping[str, Any]], events: Iterable[Event]
) -> RunProfile:
    """Build a profile from ``exporters.read_jsonl`` output.

    The ``hw`` key of the run_meta line (written by ``repro sort
    --events``) restores the machine; ``block_items`` enables the
    ``block=`` what-if.  Both degrade gracefully when absent (older
    logs): reconstruction and blame still work, what-ifs assume the
    stock hardware.  A present ``hw`` that is not a machine record is a
    ``ValueError``.
    """
    hw = None
    block_items = None
    if meta:
        if "hw" in meta:
            hw = HardwareMeta.from_dict(meta["hw"])
        raw_b = meta.get("block_items")
        if isinstance(raw_b, (int, float)):
            block_items = int(raw_b)
    return RunProfile(events, hw=hw, block_items=block_items)
