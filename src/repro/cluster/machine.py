"""Cluster assembly: specs, construction, step orchestration.

:func:`paper_cluster` recreates the paper's Table-1 machine: four Alpha
21164 nodes with SCSI work disks, two of them loaded to run ~4x slower,
on Fast-Ethernet (optionally Myrinet).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.cluster.kernel import ExecutionKernel, make_kernel
from repro.cluster.mpi import SimComm
from repro.cluster.network import FAST_ETHERNET, LinkModel, Network
from repro.cluster.node import CpuParams, SimNode
from repro.obs.bus import TelemetryBus
from repro.pdm.disk import DiskParams
from repro.pdm.stats import IOStats


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node."""

    name: str
    speed: float = 1.0
    memory_items: Optional[int] = None
    disk: DiskParams = field(default_factory=DiskParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    io_scaled_by_speed: bool = True
    n_disks: int = 1


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster."""

    nodes: tuple[NodeSpec, ...]
    link: LinkModel = FAST_ETHERNET
    packet_bytes: int = 32 * 1024

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")

    @property
    def p(self) -> int:
        return len(self.nodes)

    def with_link(self, link: LinkModel) -> "ClusterSpec":
        return replace(self, link=link)

    def with_packet_bytes(self, packet_bytes: int) -> "ClusterSpec":
        return replace(self, packet_bytes=packet_bytes)

    def with_memory(self, memory_items: Optional[int]) -> "ClusterSpec":
        return replace(
            self, nodes=tuple(replace(n, memory_items=memory_items) for n in self.nodes)
        )


class NodeSet:
    """What an algorithm step is written against: some of a cluster's
    nodes on its shared kernel, telemetry bus and step observers.

    A :class:`Cluster` is the set of all its nodes, a :class:`ClusterView`
    a subset of them (degraded-mode survivors).  The step protocol, the
    barrier and the aggregate readings are stated here, once, over
    ``self.nodes`` — so every step written against a cluster runs
    unchanged over a view.
    """

    nodes: list[SimNode]
    network: Network
    #: Execution kernel: owns the cost-to-clock mapping and the
    #: synchronization semantics of every step and barrier.
    kernel: ExecutionKernel
    #: The cluster's telemetry bus — single source of truth for step
    #: intervals, phase-attributed I/O counters and every exported
    #: event stream.
    bus: TelemetryBus
    #: Callbacks fired (with the step name) at the start of every
    #: :meth:`step`; the fault injector's node kills are raised here.
    step_observers: list[Callable[[str], None]]

    @property
    def p(self) -> int:
        return len(self.nodes)

    def elapsed(self) -> float:
        """Simulated wall time = the furthest node, pending work included."""
        return max(self.kernel.node_time(n) for n in self.nodes)

    def barrier(self) -> float:
        """True synchronization point (settles pending work under the
        event kernel, then jumps every clock to the maximum).

        Emits one ``BarrierWait`` per participant — the wait is measured
        from the node's *pending-work-inclusive* time, so write-behind
        that is still draining counts as busy, not idle.  These events
        are what gives the profiler explicit rendezvous points under the
        event kernel (step boundaries are barrier-free there).
        """
        before = [self.kernel.node_time(n) for n in self.nodes]
        t1 = self.kernel.sync(self.nodes)
        name = self.bus.current_step or "sync"
        for n, t0 in zip(self.nodes, before):
            self.bus.record_barrier_wait(name, n.rank, t1, t1 - t0)
        return t1

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """Kernel-delimited algorithm step; publishes step telemetry.

        Emits per-node ``StepBegin`` / ``StepEnd`` events on the bus
        (what :func:`repro.obs.events.step_seconds` folds into per-step
        seconds) and attributes every event emitted inside the body to
        ``name`` via the bus's step scope.  Under the lockstep kernel
        the step is barrier-delimited and per-node ``BarrierWait``
        events are emitted; under the event kernel nodes flow through
        the boundary at their own clocks.  A body that raises (an
        injected fault) leaves no end events: only completed attempts
        are timed.
        """
        self.kernel.step_enter(self.nodes)
        for obs in list(self.step_observers):
            obs(name)
        bus = self.bus
        starts = [n.clock.time for n in self.nodes]
        for start, n in zip(starts, self.nodes):
            bus.record_step_begin(name, n.rank, start)
        with bus.step_scope(name):
            yield
        ends = [n.clock.time for n in self.nodes]
        for start, end, n in zip(starts, ends, self.nodes):
            bus.record_step_end(name, n.rank, start, end)
        t1 = self.kernel.step_exit(self.nodes)
        if t1 is not None:
            for end, n in zip(ends, self.nodes):
                bus.record_barrier_wait(name, n.rank, t1, t1 - end)

    def io_stats(self) -> IOStats:
        """Aggregate disk counters across the nodes."""
        return IOStats.merge([n.disk.stats for n in self.nodes])


class Cluster(NodeSet):
    """A live simulated cluster built from a :class:`ClusterSpec`.

    ``kernel`` selects the execution scheduler (see
    :mod:`repro.cluster.kernel`): ``"event"`` (default) lets nodes
    advance independently between true synchronization points with
    overlap-aware disk service; ``"lockstep"`` reproduces the original
    barrier-per-step BSP semantics bit for bit.
    """

    # benchmarks/perf/trace.py instruments the step and the barrier of a
    # cluster and of a view under separate labels, through ``vars(cls)``.
    step = NodeSet.step
    barrier = NodeSet.barrier

    def __init__(
        self, spec: ClusterSpec, kernel: Union[str, ExecutionKernel] = "event"
    ) -> None:
        self.spec = spec
        self.nodes = [
            SimNode(
                rank=i,
                speed=ns.speed,
                memory_items=ns.memory_items,
                disk_params=ns.disk,
                cpu_params=ns.cpu,
                name=ns.name,
                io_scaled_by_speed=ns.io_scaled_by_speed,
                n_disks=ns.n_disks,
            )
            for i, ns in enumerate(spec.nodes)
        ]
        self.network = Network(spec.link, spec.p, spec.packet_bytes)
        self.comm = SimComm(self.nodes, self.network)
        self.bus = TelemetryBus()
        self.network.bus = self.bus
        self.kernel = make_kernel(kernel)
        self.kernel.attach(self.nodes)
        for node in self.nodes:
            node.disk.bus = self.bus
            node.mem.bus = self.bus
            node.bus = self.bus
        self.step_observers = []

    @property
    def speeds(self) -> list[float]:
        return [n.speed for n in self.nodes]

    def view(self, ranks: Sequence[int]) -> "ClusterView":
        """A live view over a subset of nodes (degraded-mode survivors)."""
        return ClusterView(self, ranks)

    def reset(self) -> None:
        """Zero clocks, counters, network channels and the event stream.

        Used after untimed setup (the paper excludes the initial data
        distribution from its measurements).
        """
        for n in self.nodes:
            n.reset()
        self.network.reset()
        self.kernel.reset()
        self.bus.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(f"{n.name}(x{n.speed:g})" for n in self.nodes)
        return f"Cluster[{names}] over {self.spec.link.name}"


class ClusterView(NodeSet):
    """A subset of a cluster's nodes presented with the Cluster interface.

    Degraded mode runs steps 2-5 over the surviving nodes only: the view
    shares the parent's network, kernel, bus and step observers, but its
    ``nodes`` / ``comm`` / ``barrier`` cover the chosen ranks, so every
    algorithm step written against a :class:`Cluster` runs unchanged over
    the survivors.  A full-range view (``ranks == range(p)``) behaves
    identically to the cluster itself.
    """

    step = NodeSet.step
    barrier = NodeSet.barrier

    def __init__(self, cluster: Cluster, ranks: Sequence[int]) -> None:
        ranks = list(ranks)
        if not ranks:
            raise ValueError("a cluster view needs at least one node")
        if any(not (0 <= r < cluster.p) for r in ranks):
            raise ValueError(f"ranks {ranks} out of range for a {cluster.p}-node cluster")
        self.cluster = cluster
        self.ranks = ranks
        self.nodes = [cluster.nodes[r] for r in ranks]
        self.network = cluster.network
        self.comm = SimComm(self.nodes, cluster.network)
        self.spec = cluster.spec
        self.kernel = cluster.kernel
        self.bus = cluster.bus
        self.step_observers = cluster.step_observers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterView(ranks={self.ranks})"


def paper_cluster(
    loaded: bool = True,
    memory_items: Optional[int] = None,
    link: LinkModel = FAST_ETHERNET,
    packet_bytes: int = 32 * 1024,
) -> ClusterSpec:
    """The paper's Table-1 machine.

    Four Alpha 21164 (533 MHz) nodes with SCSI work disks.  With
    ``loaded=True`` (the paper's protocol) siegrune and rossweisse carry
    forked load and run ~4x slower, so relative speeds are {4,4,1,1}
    (the paper writes the perf vector {1,1,4,4} with the loaded pair
    first; order here follows Table 2's host listing).
    """
    # seek_time here is the *effective per-block overhead* of the mostly
    # sequential access patterns external sorting generates: streaming
    # reads/writes amortise the 8 ms random-access latency down to
    # track-to-track + rotational slices (readahead, write-behind).
    scsi = DiskParams(seek_time=5e-4, bandwidth=15e6)
    alpha = CpuParams(seconds_per_op=2e-8)
    slow = 0.25 if loaded else 1.0
    mk = lambda name, speed: NodeSpec(  # noqa: E731 - local literal helper
        name=name,
        speed=speed,
        memory_items=memory_items,
        disk=scsi,
        cpu=alpha,
    )
    return ClusterSpec(
        nodes=(
            mk("helmvige", 1.0),
            mk("grimgerde", 1.0),
            mk("siegrune", slow),
            mk("rossweisse", slow),
        ),
        link=link,
        packet_bytes=packet_bytes,
    )


def homogeneous_cluster(
    p: int,
    memory_items: Optional[int] = None,
    link: LinkModel = FAST_ETHERNET,
    packet_bytes: int = 32 * 1024,
    disk: DiskParams = DiskParams(),
    cpu: CpuParams = CpuParams(),
) -> ClusterSpec:
    """A p-node homogeneous cluster (the perf = {1,...,1} configuration)."""
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(name=f"node{i}", speed=1.0, memory_items=memory_items, disk=disk, cpu=cpu)
            for i in range(p)
        ),
        link=link,
        packet_bytes=packet_bytes,
    )


def heterogeneous_cluster(
    speeds: Sequence[float],
    memory_items: Optional[int] = None,
    link: LinkModel = FAST_ETHERNET,
    packet_bytes: int = 32 * 1024,
    disk: DiskParams = DiskParams(),
    cpu: CpuParams = CpuParams(),
) -> ClusterSpec:
    """A cluster with the given relative speeds (the perf vector)."""
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(name=f"node{i}", speed=s, memory_items=memory_items, disk=disk, cpu=cpu)
            for i, s in enumerate(speeds)
        ),
        link=link,
        packet_bytes=packet_bytes,
    )
