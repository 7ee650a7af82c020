"""Shared data model of the critical-path profiler.

Two kinds of objects live here:

* :class:`HardwareMeta` — the run's hardware/cost-model parameters
  (speeds, disk and link models, kernel name), serialised into the
  JSONL ``run_meta`` line under the ``"hw"`` key.  The bounds auditor's
  :class:`~repro.obs.audit.RunMeta` describes the *algorithm*
  configuration; ``HardwareMeta`` describes the *machine*, which is
  what the what-if engine needs to re-cost a recorded run.
* :class:`Segment` — one contiguous interval of one node's time, with
  a *kind* (compute, disk service, network, barrier idle, ...).  The
  timeline reconstruction tiles every node's clock from 0 to the run's
  end with segments; the critical-path walk and the blame report are
  folds over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.cluster.machine import Cluster, ClusterSpec, NodeSpec
from repro.cluster.network import LinkModel
from repro.cluster.node import CpuParams
from repro.pdm.disk import DiskParams

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


@dataclass(frozen=True)
class Segment:
    """One contiguous interval of one node's simulated time.

    ``link`` on wait-type segments names the *cause*: ``(peer_rank,
    time)`` — the node whose progress ended this wait, and when.  The
    critical-path walk follows these links backward.
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
    """Hardware/cost-model parameters of a recorded run.

    Serialised under the ``"hw"`` key of the JSONL ``run_meta`` line;
    every field has a default matching the CLI's stock configuration, so
    logs written before the profiler existed still replay (with a
    fidelity warning when re-costing is requested).
    """

    kernel: str = "event"
    speeds: tuple[float, ...] = ()
    io_scaled_by_speed: bool = True
    seek_time: float = 8e-3
    disk_bandwidth: float = 20e6
    n_disks: int = 1
    seconds_per_op: float = 2e-8
    link_latency: float = 90e-6
    link_bandwidth: float = 12.5e6
    link_small_overhead: float = 2e-3
    link_mtu_bytes: int = 1500
    link_name: str = "Fast-Ethernet"
    packet_bytes: int = 32 * 1024

    @staticmethod
    def from_cluster(cluster: Cluster) -> "HardwareMeta":
        """Snapshot a live cluster's cost-model parameters."""
        node0 = cluster.nodes[0]
        spec0 = cluster.spec.nodes[0]
        link = cluster.spec.link
        return HardwareMeta(
            kernel=cluster.kernel.name,
            speeds=tuple(n.speed for n in cluster.nodes),
            io_scaled_by_speed=spec0.io_scaled_by_speed,
            seek_time=node0.disk.params.seek_time,
            disk_bandwidth=node0.disk.params.bandwidth,
            n_disks=node0.disk.parallelism,
            seconds_per_op=node0.cpu.seconds_per_op,
            link_latency=link.latency,
            link_bandwidth=link.bandwidth,
            link_small_overhead=link.small_message_overhead,
            link_mtu_bytes=link.mtu_bytes,
            link_name=link.name,
            packet_bytes=cluster.network.packet_bytes,
        )

    @property
    def link(self) -> LinkModel:
        """The recorded interconnect."""
        return LinkModel(
            latency=self.link_latency,
            bandwidth=self.link_bandwidth,
            name=self.link_name,
            small_message_overhead=self.link_small_overhead,
            mtu_bytes=self.link_mtu_bytes,
        )

    def cluster_spec(self, n_nodes: int) -> ClusterSpec:
        """The recorded machine as a buildable spec (inverse of
        :meth:`from_cluster`).  Nodes beyond the recorded speed vector
        (a log with no ``hw`` head) run at speed 1."""
        speeds = self.speeds + (1.0,) * (max(n_nodes, 1) - len(self.speeds))
        disk = DiskParams(seek_time=self.seek_time, bandwidth=self.disk_bandwidth)
        cpu = CpuParams(seconds_per_op=self.seconds_per_op)
        return ClusterSpec(
            nodes=tuple(
                NodeSpec(
                    name=f"node{i}",
                    speed=s,
                    disk=disk,
                    cpu=cpu,
                    io_scaled_by_speed=self.io_scaled_by_speed,
                    n_disks=self.n_disks,
                )
                for i, s in enumerate(speeds)
            ),
            link=self.link,
            packet_bytes=self.packet_bytes,
        )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["speeds"] = list(self.speeds)
        return out

    @staticmethod
    def from_dict(data: Optional[Mapping[str, Any]]) -> "HardwareMeta":
        """Lenient inverse of :meth:`to_dict`: a missing key takes its
        default, a present one is coerced to its default's type."""
        values: dict[str, Any] = {}
        for f in fields(HardwareMeta):
            if data and f.name in data:
                kind: Any = type(f.default)
                raw = data[f.name]
                values[f.name] = tuple(map(float, raw)) if kind is tuple else kind(raw)
        return HardwareMeta(**values)


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
