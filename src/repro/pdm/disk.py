"""Simulated block device.

A :class:`SimDisk` does not store bytes itself (block payloads live in the
:class:`~repro.pdm.blockfile.BlockFile` objects created on it); it is the
*cost and accounting* surface: every block read or write is counted in
:class:`~repro.pdm.stats.IOStats` and charged a model service time of

    cost = seek_time + payload_bytes / bandwidth

optionally scaled by the owning node's I/O slowdown (heterogeneity), and
reported to an observer callback so the node's virtual clock advances.

Default constants approximate the paper's late-90s SCSI drives (Table 1):
~8 ms average access, ~20 MB/s sustained transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis.sanitizers import active_sanitizer
from repro.pdm.stats import IOStats

if TYPE_CHECKING:
    import numpy as np

    from repro.cluster.kernel import ExecutionKernel
    from repro.cluster.node import SimNode
    from repro.obs.bus import TelemetryBus
    from repro.pdm.blockfile import BlockFile

#: Signature of :attr:`SimDisk.file_factory` — how a disk manufactures
#: block files (in-memory by default, host-spilled via FileStore.create).
FileFactory = Callable[["SimDisk", int, "np.dtype | type", str], "BlockFile"]


@dataclass(frozen=True)
class DiskParams:
    """Service-time model of one drive.

    Attributes
    ----------
    seek_time:
        Fixed overhead per block access, seconds.  Covers seek +
        rotational latency + command overhead.
    bandwidth:
        Sustained transfer rate, bytes/second.
    """

    seek_time: float = 8e-3
    bandwidth: float = 20e6

    def __post_init__(self) -> None:
        if self.seek_time < 0:
            raise ValueError(f"seek_time must be >= 0, got {self.seek_time}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    def access_cost(self, nbytes: int) -> float:
        """Model service time for one block access of ``nbytes`` payload."""
        return self.seek_time + nbytes / self.bandwidth


#: Paper-era SCSI drive (Table 1: 8 GB / 4 GB SCSI disks).
SCSI_1999 = DiskParams(seek_time=8e-3, bandwidth=20e6)

#: A fast modern-ish drive, for sensitivity experiments.
FAST_DISK = DiskParams(seek_time=1e-4, bandwidth=500e6)


class SimDisk:
    """One simulated independent drive (the PDM's ``D`` dimension).

    Parameters
    ----------
    params:
        Service-time model.
    name:
        Human-readable label (shows up in traces and error messages).
    slowdown:
        Multiplicative service-time factor (>= 0).  The paper's loaded
        nodes are slower at *everything*, including their I/O; a node's
        heterogeneity factor is applied here.
    observer:
        Called with the service time of every I/O; the owning
        :class:`~repro.cluster.node.SimNode` uses this to advance its
        virtual clock.

    Fault injection
    ---------------
    :attr:`fault_hook`, when set, is called as
    ``hook(disk, op, n_items, itemsize)`` before every block I/O is
    charged; raising from the hook aborts the access before any counter
    or payload state changes (block I/Os are atomic: a faulted write
    leaves the file untouched).  The
    :class:`~repro.faults.injector.FaultInjector` installs hooks from a
    declarative :class:`~repro.faults.plan.FaultPlan`.
    """

    def __init__(
        self,
        params: DiskParams = SCSI_1999,
        name: str = "disk",
        slowdown: float = 1.0,
        observer: Optional[Callable[[float], None]] = None,
        parallelism: int = 1,
    ) -> None:
        if slowdown < 0:
            raise ValueError(f"slowdown must be >= 0, got {slowdown}")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.params = params
        self.name = name
        self.slowdown = slowdown
        self.observer = observer
        #: Number of independent drives behind this logical device (the
        #: PDM's D).  Streaming access amortises across the stripe, so
        #: service time divides by D while the block-I/O *count* — the
        #: PDM cost measure — is unchanged (Theorem 1's n/D factor).
        self.parallelism = parallelism
        self.stats = IOStats()
        self.file_factory: Optional[FileFactory] = None
        #: Owning :class:`~repro.cluster.node.SimNode`, set by the node at
        #: construction.  The runtime sanitizer uses it for node-isolation
        #: checks (a dead node's disk is salvage-readable, never writable).
        self.owner: Optional["SimNode"] = None
        #: Optional fault-injection hook ``(disk, op, n_items, itemsize) -> None``;
        #: may raise :class:`~repro.faults.plan.DiskFaultError`.
        self.fault_hook: Optional[Callable[["SimDisk", str, int, int], None]] = None
        #: Telemetry bus (wired by the owning Cluster).  Every charged
        #: block I/O is published as a ``BlockRead``/``BlockWrite`` event
        #: and attributed, in ``stats.labels``, to the bus's current step.
        self.bus: Optional["TelemetryBus"] = None
        #: Execution kernel (wired by the owning Cluster).  When set it
        #: owns the cost-to-clock mapping of every charged access; a
        #: standalone disk falls back to the synchronous legacy model.
        self.kernel: Optional["ExecutionKernel"] = None
        #: Drive-timeline service start of the most recent access, set
        #: by the kernel per charge (``-1.0`` = synchronous semantics,
        #: where service start is completion minus cost).  Published on
        #: each block event as its ``queued`` field.
        self.last_queued: float = -1.0
        self._file_counter = 0

    def next_file_name(self, prefix: str = "f") -> str:
        """Fresh unique file name on this disk (for temp run files)."""
        self._file_counter += 1
        return f"{self.name}/{prefix}{self._file_counter}"

    def new_file(
        self, B: int, dtype: "np.dtype | type", name: Optional[str] = None
    ) -> "BlockFile":
        """Create a block file on this disk through its file factory.

        By default files store their payload in process memory; install a
        :class:`~repro.pdm.filestore.FileStore`'s ``create`` via
        :attr:`file_factory` to spill every file this disk manufactures
        to real host storage (true out-of-core operation).
        """
        if name is None:
            name = self.next_file_name()
        if self.file_factory is not None:
            return self.file_factory(self, B, dtype, name)
        from repro.pdm.blockfile import BlockFile

        return BlockFile(self, B, dtype, name=name)

    def charge_read(
        self,
        n_items: int,
        itemsize: int,
        stream: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> float:
        """Account one block read of ``n_items`` items; returns its cost.

        ``stream`` / ``offset`` optionally identify the access as block
        ``offset`` of file ``stream`` so an attached execution kernel can
        detect sequential continuation (seek amortization); block counts
        and fault triggers are independent of them.
        """
        san = active_sanitizer()
        if san is not None:
            san.on_disk_charge(self, "read", n_items, itemsize)
        if self.fault_hook is not None:
            self.fault_hook(self, "read", n_items, itemsize)
        self.last_queued = -1.0  # synchronous unless the kernel says otherwise
        if self.kernel is not None:
            cost = self.kernel.on_io(self, "read", n_items, itemsize, stream, offset)
        else:
            cost = self.serve_sync(n_items, itemsize)
        stats = self.stats
        stats.blocks_read += 1
        stats.items_read += n_items
        stats.seeks += 1
        stats.busy_time += cost
        bus = self.bus
        if bus is not None:
            step = bus.current_step
            if step:  # attribute the access to the step in progress
                stats.labels[step] = stats.labels.get(step, 0) + 1
            if bus.captures_io:
                self._publish(bus, "read", n_items, itemsize, cost, stream, offset)
        return cost

    def charge_write(
        self,
        n_items: int,
        itemsize: int,
        stream: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> float:
        """Account one block write of ``n_items`` items; returns its cost."""
        san = active_sanitizer()
        if san is not None:
            san.on_disk_charge(self, "write", n_items, itemsize)
        if self.fault_hook is not None:
            self.fault_hook(self, "write", n_items, itemsize)
        self.last_queued = -1.0  # synchronous unless the kernel says otherwise
        if self.kernel is not None:
            cost = self.kernel.on_io(self, "write", n_items, itemsize, stream, offset)
        else:
            cost = self.serve_sync(n_items, itemsize)
        stats = self.stats
        stats.blocks_written += 1
        stats.items_written += n_items
        stats.seeks += 1
        stats.busy_time += cost
        bus = self.bus
        if bus is not None:
            step = bus.current_step
            if step:  # attribute the access to the step in progress
                stats.labels[step] = stats.labels.get(step, 0) + 1
            if bus.captures_io:
                self._publish(bus, "write", n_items, itemsize, cost, stream, offset)
        return cost

    def serve_sync(self, n_items: int, itemsize: int) -> float:
        """The synchronous model: one access costs the full ``seek +
        transfer`` service time and the observer (the owning clock) is
        advanced by it immediately.  Applies without a kernel
        (standalone drives, unit tests) and under the lockstep kernel."""
        cost = (
            self.params.access_cost(n_items * itemsize)
            * self.slowdown
            / self.parallelism
        )
        if self.observer is not None:
            self.observer(cost)
        return cost

    def _publish(
        self,
        bus: "TelemetryBus",
        op: str,
        n_items: int,
        itemsize: int,
        cost: float,
        stream: Optional[str],
        offset: Optional[int],
    ) -> None:
        """Publish one completed block I/O to an I/O-capturing bus.

        Called after the stats and observer updates so the event's
        timestamp is the access's *completion* time on the owning node's
        clock (standalone disks fall back to their accumulated busy
        time, which is equally monotone).  Writes under the event kernel
        are the exception: the clock is not advanced, so ``t`` is the
        issue time and ``queued`` carries the drive-timeline start.
        """
        owner = self.owner
        t = owner.clock.time if owner is not None else self.stats.busy_time
        queued = self.last_queued if self.last_queued >= 0.0 else t - cost
        bus.record_block_io(
            op,
            disk=self.name,
            node=owner.rank if owner is not None else -1,
            t=t,
            n_items=n_items,
            itemsize=itemsize,
            cost=cost,
            queued=queued,
            stream=stream if stream is not None else "",
            offset=offset if offset is not None else -1,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimDisk({self.name!r}, {self.stats})"
