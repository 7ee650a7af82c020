"""Turning a :class:`~repro.faults.plan.FaultPlan` into live hooks.

The injector instruments a cluster through the first-class hook points
the simulation layers expose — no subclassing:

* :attr:`SimDisk.fault_hook` — consulted before every block I/O is
  charged; raising aborts the I/O *before* any state or counter changes
  (the sim's block writes are atomic).
* :attr:`Network.fault_hook` — consulted on every message; may raise
  (hard failure) or return extra seconds to charge (drop = retransmit,
  delay = slow link).
* :attr:`Cluster.step_observers` — consulted at every step barrier;
  node kills fire here, marking the node dead and raising
  :class:`~repro.faults.plan.NodeKilledError` so the orchestrator can
  enter degraded mode.

All probabilistic decisions come from one ``numpy`` generator seeded by
the plan, so a given (plan, workload) pair always injects the same
faults — the property the hypothesis suites rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.faults.plan import (
    DiskFault,
    DiskFaultError,
    FaultCounters,
    FaultPlan,
    MessageFault,
    NetworkFaultError,
    NodeKill,
    NodeKilledError,
    step_index,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Cluster
    from repro.pdm.disk import SimDisk


class _DiskArm:
    """Mutable firing state of one :class:`DiskFault`."""

    def __init__(self, fault: DiskFault) -> None:
        self.fault = fault
        self.ios_seen = 0
        self.fired = 0

    def check(self, disk: "SimDisk", op: str, counters: FaultCounters) -> None:
        self.ios_seen += 1
        if self.ios_seen <= self.fault.after_ios:
            return
        if self.fault.count is not None and self.fired >= self.fault.count:
            return  # transient fault exhausted: the disk has healed
        self.fired += 1
        counters.disk_faults += 1
        bus = disk.bus
        if bus is not None:
            owner = disk.owner
            bus.record_fault(
                "disk",
                node=owner.rank if owner is not None else -1,
                t=owner.clock.time if owner is not None else disk.stats.busy_time,
                detail=f"{disk.name} {op} io#{self.ios_seen}",
            )
        raise DiskFaultError(disk.name, op, self.ios_seen)


class _MessageArm:
    """Mutable firing state of one :class:`MessageFault`."""

    def __init__(self, fault: MessageFault) -> None:
        self.fault = fault
        self.messages_seen = 0
        self.fired = 0

    def matches(self, src_rank: int, dst_rank: int) -> bool:
        f = self.fault
        return (f.src is None or f.src == src_rank) and (
            f.dst is None or f.dst == dst_rank
        )

    def check(
        self,
        src_rank: int,
        dst_rank: int,
        duration: float,
        rng: np.random.Generator,
        counters: FaultCounters,
        bus=None,
        t: float = 0.0,
    ) -> float:
        """Return extra seconds to charge, or raise on a hard failure."""
        f = self.fault
        index = self.messages_seen
        self.messages_seen += 1
        if (
            f.fail_after is not None
            and index >= f.fail_after
            and (f.count is None or self.fired < f.count)
        ):
            self.fired += 1
            counters.network_faults += 1
            if bus is not None:
                bus.record_fault(
                    "network",
                    node=src_rank,
                    t=t,
                    detail=f"{src_rank}->{dst_rank} msg#{index}",
                )
            raise NetworkFaultError(src_rank, dst_rank, index)
        extra = 0.0
        if f.drop_probability > 0 and rng.random() < f.drop_probability:
            counters.messages_dropped += 1
            extra += duration + f.delay  # full retransmission + timeout
            if bus is not None:
                bus.record_fault(
                    "message-drop",
                    node=src_rank,
                    t=t,
                    detail=f"{src_rank}->{dst_rank} msg#{index}",
                )
        if f.delay_probability > 0 and rng.random() < f.delay_probability:
            counters.messages_delayed += 1
            extra += f.delay
            if bus is not None:
                bus.record_fault(
                    "message-delay",
                    node=src_rank,
                    t=t,
                    detail=f"{src_rank}->{dst_rank} msg#{index}",
                )
        return extra


def install_disk_faults(
    disk: "SimDisk",
    faults: Sequence[DiskFault],
    counters: Optional[FaultCounters] = None,
) -> FaultCounters:
    """Arm ``faults`` on one standalone disk (the ``node`` field is ignored).

    I/Os are counted from this call, so arming after setup writes leaves
    the setup uncounted.  Returns the counters the hook updates.  Used by
    the single-disk engine tests and by :meth:`FaultInjector.install`.
    """
    counters = counters if counters is not None else FaultCounters()
    arms = [_DiskArm(f) for f in faults]

    def hook(d: "SimDisk", op: str, n_items: int, itemsize: int) -> None:
        for arm in arms:
            arm.check(d, op, counters)

    disk.fault_hook = hook
    return counters


class FaultInjector:
    """Arms a :class:`FaultPlan` on a live cluster and counts what fires."""

    def __init__(self, plan: FaultPlan, counters: Optional[FaultCounters] = None) -> None:
        self.plan = plan
        self.counters = counters if counters is not None else FaultCounters()
        self._rng = np.random.default_rng(plan.seed)
        self._cluster: Optional["Cluster"] = None
        self._hooked_disks: list["SimDisk"] = []
        self._pending_kills: dict[int, NodeKill] = {}
        self._message_arms: list[_MessageArm] = []

    @property
    def installed(self) -> bool:
        return self._cluster is not None

    def install(self, cluster: "Cluster") -> "FaultInjector":
        """Wire every hook; I/O and message counting starts now."""
        if self._cluster is not None:
            raise RuntimeError("injector is already installed")
        self.plan.validate_for(cluster.p)
        self._cluster = cluster
        by_node: dict[int, list[DiskFault]] = {}
        for f in self.plan.disk_faults:
            by_node.setdefault(f.node, []).append(f)
        for rank, faults in by_node.items():
            disk = cluster.nodes[rank].disk
            install_disk_faults(disk, faults, self.counters)
            self._hooked_disks.append(disk)
        if self.plan.message_faults:
            self._message_arms = [_MessageArm(m) for m in self.plan.message_faults]
            cluster.network.fault_hook = self._on_message
        self._pending_kills = {k.node: k for k in self.plan.node_kills}
        cluster.step_observers.append(self._on_step)
        return self

    def uninstall(self) -> None:
        """Remove every hook this injector installed."""
        if self._cluster is None:
            return
        for disk in self._hooked_disks:
            disk.fault_hook = None
        self._hooked_disks = []
        if self._message_arms:
            self._cluster.network.fault_hook = None
            self._message_arms = []
        try:
            self._cluster.step_observers.remove(self._on_step)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._cluster = None

    # -- hook bodies -------------------------------------------------------

    def _on_message(self, src, dst, nbytes: int, duration: float) -> float:
        bus = self._cluster.bus if self._cluster is not None else None
        extra = 0.0
        for arm in self._message_arms:
            if arm.matches(src.rank, dst.rank):
                extra += arm.check(
                    src.rank,
                    dst.rank,
                    duration,
                    self._rng,
                    self.counters,
                    bus=bus,
                    t=src.clock.time,
                )
        return extra

    def _on_step(self, name: str) -> None:
        step = step_index(name)
        if step is None or not self._pending_kills:
            return
        for rank in sorted(self._pending_kills):
            kill = self._pending_kills[rank]
            if kill.step != step:
                continue
            del self._pending_kills[rank]
            node = self._cluster.nodes[rank]
            if not node.alive:
                continue
            node.mark_dead(name)
            self.counters.node_kills += 1
            self.counters.dead_nodes.append(rank)
            self._cluster.bus.record_fault(
                "node-kill", node=rank, t=node.clock.time, detail=name
            )
            raise NodeKilledError(rank, step)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "installed" if self.installed else "idle"
        return f"FaultInjector({state}, {self.counters})"
