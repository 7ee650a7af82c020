"""Shared data model of the critical-path profiler.

Two kinds of objects live here:

* :class:`HardwareMeta` — the run's machine (its
  :class:`~repro.cluster.machine.ClusterSpec` and kernel name),
  serialised into the JSONL ``run_meta`` line under the ``"hw"`` key.
  The bounds auditor's :class:`~repro.obs.audit.RunMeta` describes the
  *algorithm* configuration; ``HardwareMeta`` describes the *machine*,
  which is what the what-if engine needs to re-cost a recorded run.
* :class:`Segment` — one contiguous interval of one node's time, with
  a *kind* (compute, disk service, network, barrier idle, ...).  The
  timeline reconstruction tiles every node's clock from 0 to the run's
  end with segments; the critical-path walk and the blame report are
  folds over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Optional

from repro.cluster.machine import Cluster, ClusterSpec

# -- segment kinds ----------------------------------------------------------

COMPUTE = "compute"          #: charged CPU work
DISK = "disk"                #: drive service time the node blocked on
DISK_QUEUE = "disk-queue"    #: waiting for the drive's queue to drain
DISK_FLUSH = "disk-flush"    #: write-behind draining before a barrier
NET_SEND = "net-send"        #: transmitting a message
NET_RECV = "net-recv"        #: receiving a message (in flight)
NET_WAIT = "net-wait"        #: waiting for a peer or a busy channel
BARRIER = "barrier"          #: idle at a rendezvous point
BACKOFF = "fault-backoff"    #: retry backoff pause after a transient fault
IDLE = "idle"                #: trailing idle (node finished before the run did)
OTHER = "other"              #: unattributed clock advance (low capture level)

#: Blame component each segment kind rolls up into.
COMPONENT_OF: dict[str, str] = {
    COMPUTE: "compute",
    DISK: "disk",
    DISK_QUEUE: "disk",
    DISK_FLUSH: "disk",
    NET_SEND: "net",
    NET_RECV: "net",
    NET_WAIT: "net",
    BARRIER: "barrier",
    BACKOFF: "other",
    IDLE: "other",
    OTHER: "other",
}

#: Blame components in report order.
COMPONENTS = ("compute", "disk", "net", "barrier", "other")


class Segment(NamedTuple):
    """One contiguous interval of one node's simulated time.

    ``link`` on wait-type segments names the *cause*: ``(peer_rank,
    time)`` — the node whose progress ended this wait, and when.  The
    critical-path walk follows these links backward.  A named tuple: the
    timeline builds thousands, positionally.
    """

    node: int
    t0: float
    t1: float
    kind: str
    step: str = ""
    link: Optional[tuple[int, float]] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def component(self) -> str:
        return COMPONENT_OF.get(self.kind, "other")


@dataclass(frozen=True)
class HardwareMeta:
    """The machine a recorded run ran on: its spec and its kernel.

    Serialised under the ``"hw"`` key of the JSONL ``run_meta`` line as
    the kernel name plus :meth:`ClusterSpec.to_dict
    <repro.cluster.machine.ClusterSpec.to_dict>`, so every node's speed,
    drives and CPU, the link and the packet size survive the log.
    """

    spec: ClusterSpec
    kernel: str = "event"

    @staticmethod
    def from_cluster(cluster: Cluster) -> "HardwareMeta":
        return HardwareMeta(cluster.spec, cluster.kernel.name)

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, **self.spec.to_dict()}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "HardwareMeta":
        """Inverse of :meth:`to_dict`; a head of another shape is a
        ``ValueError`` that names the missing key."""
        try:
            return HardwareMeta(ClusterSpec.from_dict(data), data["kernel"])
        except KeyError as exc:
            raise ValueError(f"not a machine record: missing key {exc}") from exc


@dataclass
class BarrierGroup:
    """One rendezvous: the participants and the wait each one paid."""

    t: float
    step: str
    waits: list[tuple[int, float]] = field(default_factory=list)

    def gating_node(self) -> int:
        """The participant that arrived last (smallest wait) — the node
        whose progress released the barrier."""
        return min(self.waits, key=lambda nw: nw[1])[0]
