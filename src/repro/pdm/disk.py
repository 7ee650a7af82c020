"""Simulated block device.

A :class:`SimDisk` does not store bytes itself (block payloads live in the
:class:`~repro.pdm.blockfile.BlockFile` objects created on it); it is the
*cost and accounting* surface: every block read or write is counted in
:class:`~repro.pdm.stats.IOStats` and charged a model service time of

    cost = seek_time + payload_bytes / bandwidth

optionally scaled by the owning node's I/O slowdown (heterogeneity), and
reported to an observer callback so the node's virtual clock advances.
The drive keeps no per-step record: a step's I/O is
:attr:`~repro.faults.recovery.StepRunner.step_io`, and each
``BlockRead``/``BlockWrite`` row on the bus names its step.

Default constants approximate the paper's late-90s SCSI drives (Table 1):
~8 ms average access, ~20 MB/s sustained transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from repro.analysis.sanitizers import active_sanitizer
from repro.obs.events import BlockRead, BlockWrite, MemRelease, MemReserve, Row
from repro.pdm.stats import IOStats

if TYPE_CHECKING:
    import numpy as np

    from repro.cluster.kernel import ExecutionKernel
    from repro.cluster.node import SimNode
    from repro.obs.bus import TelemetryBus
    from repro.pdm.blockfile import BlockFile

#: Consecutive blocks of one stream: ``(op, itemsize, stream, first offset,
#: items per block)``; a batch entry, as is a float of the owner's CPU ops.
Blocks = tuple[str, int, Optional[str], Optional[int], Sequence[int]]
#: A reservation change, ``[n, in_use, node]``: ``n`` items reserved
#: (``n >= 0``) or ``-n`` released in ``node``'s memory (None: a manager
#: with no owner), leaving ``in_use`` pinned; a batch entry that only
#: stamps its row with ``node``'s clock, moving no clock and no drive
#: state.  A list, so a kernel tells a block stretch (a tuple) from the
#: other two kinds by one ``isinstance``.
Pin = list[Any]
Charge = Union[Blocks, float, Pin]
#: The batch's bus rows, blocks and reservations in batch order.
Rows = Optional[list[Row]]

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


def reservation_row(entry: Pin, step: str) -> Row:
    """The ``MemReserve``/``MemRelease`` row of reservation entry ``entry``
    as its manager publishes it: its node's rank and clock, or -1 and 0.0."""
    n, in_use, node = entry
    rank, t = (-1, 0.0) if node is None else (node.rank, node.clock.time)
    if n >= 0:
        return (MemReserve, t, rank, step, n, in_use)
    return (MemRelease, t, rank, step, -n, in_use)


def publish_compute(
    bus: "TelemetryBus", rows: Rows, node: int, t: float, seconds: float, ops: float
) -> None:
    """The ``Compute`` row of a batch's CPU entry, where ``SimNode.compute``
    writes it: after the batch's rows so far, which go out first, so it
    coalesces into the stream's tail as ``TelemetryBus.record_compute`` says."""
    if rows:
        bus.record_rows(rows)
        rows.clear()
    bus.record_compute(node=node, t=t, seconds=seconds, ops=ops)


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
        params: DiskParams = DiskParams(),
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
        #: Telemetry bus (wired by the owning Cluster).  On a bus that
        #: captures I/O, every charged block I/O is published as a
        #: ``BlockRead``/``BlockWrite`` row of the bus's current step.
        self.bus: Optional["TelemetryBus"] = None
        #: Execution kernel (wired by the owning Cluster).  When set it
        #: owns the cost-to-clock mapping of every charged access; a
        #: standalone disk falls back to the synchronous legacy model.
        self.kernel: Optional["ExecutionKernel"] = None
        #: Drive-timeline service start of the most recent access, set
        #: by the kernel per charge (``-1.0`` = synchronous semantics,
        #: where service start is completion minus cost); each block
        #: event carries its own as its ``queued`` field.
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
        return self.charge((("read", itemsize, stream, offset, (n_items,)),))

    def charge_write(
        self,
        n_items: int,
        itemsize: int,
        stream: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> float:
        """Account one block write of ``n_items`` items; returns its cost."""
        return self.charge((("write", itemsize, stream, offset, (n_items,)),))

    def charge(self, batch: Sequence[Charge]) -> float:
        """Account a batch in one kernel pass; returns the last block's
        cost.  Every block gets the sanitizer's checks and its counters
        as if charged alone, and under an active sanitizer the counters
        must move by exactly the batch's blocks (SAN-DISK-UNACCOUNTED).
        The :attr:`fault_hook` sees every block before any is charged, so
        a raise leaves the whole batch uncharged: on a hooked disk,
        callers that must leave per-access state send one-block batches
        (``BlockFile._batched``).  On a bus that captures I/O the batch's
        rows are published at once, in batch order."""
        hook = self.fault_hook
        san = active_sanitizer()
        if san is None and hook is None:
            return self._serve(batch)
        reads = writes = 0
        for e in batch:
            if isinstance(e, tuple):
                op, itemsize, sizes = e[0], e[1], e[4]
                for n_items in sizes:
                    if san is not None:
                        san.on_disk_charge(self, op, n_items, itemsize)
                    if hook is not None:
                        hook(self, op, n_items, itemsize)
                if op == "read":
                    reads += len(sizes)
                else:
                    writes += len(sizes)
        if san is None:
            return self._serve(batch)
        with san.expect_block_charge(self, reads, writes):
            return self._serve(batch)

    def _serve(self, batch: Sequence[Charge]) -> float:
        """Apply ``batch`` through the kernel and publish its rows."""
        bus, kernel = self.bus, self.kernel
        rows: Rows = [] if bus is not None and bus.captures_io else None
        if kernel is not None:
            cost = kernel.on_batch(self, batch, rows)
        else:
            cost = self.serve_sync(batch, rows)
        if rows and bus is not None:
            bus.record_rows(rows)
        return cost

    def serve_sync(self, batch: Sequence[Charge], rows: Rows = None) -> float:
        """The synchronous model: each access costs the full ``seek +
        transfer`` service time and the observer (the owning clock) is
        advanced by it immediately.  Applies without a kernel
        (standalone drives, unit tests) and under the lockstep kernel.
        A block row's ``t`` is the owner's clock, or on a standalone drive
        its accumulated busy time (equally monotone); a reservation row's
        is its node's clock, or 0.0 (as a manager with no owner stamps
        it), and it is written only on a bus that captures memory."""
        seek_time, bandwidth = self.params.seek_time, self.params.bandwidth
        slowdown, parallelism = self.slowdown, self.parallelism
        observer, owner, stats, name = self.observer, self.owner, self.stats, self.name
        pinned: Rows = None  # takes reservation rows: only where memory is captured
        timed: Optional["TelemetryBus"] = None  # records compute rows
        if rows is not None:
            bus = self.bus
            rank = owner.rank if owner is not None else -1
            step = bus.current_step if bus is not None else ""
            if bus is not None and bus.captures_memory:
                pinned = rows
            if bus is not None and bus.captures_compute:
                timed = bus
        cost = -1.0
        for entry in batch:
            if not isinstance(entry, tuple):
                if isinstance(entry, float):  # the owner's compute, in place
                    assert owner is not None, "CPU work in a standalone drive's batch"
                    owner.ops_charged += entry
                    seconds = entry * owner.cpu.seconds_per_op / owner.speed
                    owner.clock.time += seconds
                    if timed is not None:
                        publish_compute(timed, rows, rank, owner.clock.time, seconds, entry)
                elif pinned is not None:  # a reservation change: its row, nothing else
                    pinned.append(reservation_row(entry, step))
                continue
            op, itemsize, stream, offset, sizes = entry
            if op == "read":
                stats.blocks_read += len(sizes)
                stats.items_read += sum(sizes)
            else:
                stats.blocks_written += len(sizes)
                stats.items_written += sum(sizes)
            for n_items in sizes:
                cost = (seek_time + n_items * itemsize / bandwidth) * slowdown / parallelism
                if observer is not None:
                    observer(cost)
                stats.busy_time += cost
                if rows is not None:
                    t = owner.clock.time if owner is not None else stats.busy_time
                    rows.append((
                        BlockRead if op == "read" else BlockWrite, t, rank, step, name,
                        n_items, itemsize, cost, t - cost,
                        "" if stream is None else stream, -1 if offset is None else offset,
                    ))
                    offset = None if offset is None else offset + 1
            self.last_queued = -1.0
        return cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimDisk({self.name!r}, {self.stats})"
