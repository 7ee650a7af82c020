"""Execution kernels: how charged model costs become virtual-clock time.

The cluster supports two interchangeable schedulers:

* :class:`LockstepKernel` — the original BSP semantics.  Every charged
  disk access advances the owning node's clock synchronously by the full
  ``seek + transfer`` service time, and every :meth:`Cluster.step` is
  barrier-delimited, so all clocks march in lockstep from superstep to
  superstep.
* :class:`EventKernel` — an event-queue scheduler.  Nodes advance
  independently between *true* synchronization points (explicit
  barriers and network rendezvous); there are no implicit barriers at
  step boundaries.  Disk service is modelled per drive with a free-time
  timeline, and write-behind per node with the latest queued completion:

  - **sequential-stream seek amortization** — a block access that
    continues a stream (same file, next block index) pays only the
    transfer term; the seek is charged when a stream starts or jumps.
    This models the readahead/write-behind buffering real drives and
    OS caches provide for the mostly sequential access patterns
    external sorting generates (the same rationale as
    :func:`~repro.cluster.machine.paper_cluster`'s effective seek).
  - **write-behind** — a block write occupies the drive (its free-time
    timeline moves forward) but does not block the node: the node's
    clock absorbs the completion at the next read on that drive (which
    must wait for the queue to drain) or, through the per-rank
    high-water mark of queued completions, at the next synchronization
    point.

Both kernels charge the *same I/O operations in the same order* — only
the mapping from operations to simulated time differs.  Block and item
counts, fault triggers, audit verdicts and the sorted output are
therefore kernel-independent, which is what the differential harness
(``tests/test_differential_kernel.py``) proves run by run.

Each kernel states its recurrence once (:meth:`~ExecutionKernel.on_batch`)
over a *batch*: one disk's accesses in order, in stretches of one stream,
with its owner's CPU work between them as floats (each writes the
``Compute`` row ``SimNode.compute`` would, where compute is captured) and,
on a bus that captures memory, its reservation changes as ``[n, in_use,
node]`` lists, which only stamp their row with the node's clock at their
place.  Costs are per access and sums sequential, so a batch books
(``disk.stats`` too) exactly what its accesses would one by one.  A
planned merge, a multi-block ``BlockWriter.write``,
``BlockFile.read_blocks`` and the planned loops of
steps 2–4 (``BlockFile.read_planned``: per node the sample gather, the
partition search and the partition copy, and per step-4 message its
reads) charge one batch each; any other access is a batch of one
(``on_io``), such as a stream's final partial block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.cluster.simclock import barrier
from repro.obs.events import BlockRead, BlockWrite, MemRelease, MemReserve
from repro.pdm.disk import publish_compute, reservation_row

if TYPE_CHECKING:
    from repro.cluster.node import SimNode
    from repro.obs.bus import TelemetryBus
    from repro.pdm.disk import Charge, Rows, SimDisk

#: Registry of kernel names accepted by :func:`make_kernel`.
KERNELS = ("event", "lockstep")


class ExecutionKernel:
    """Scheduling policy for a simulated cluster.

    A kernel receives every charged block I/O (:meth:`on_batch`) and every
    synchronization request (:meth:`sync`), and decides how virtual
    clocks advance.  ``step_enter`` / ``step_exit`` hook the
    :meth:`~repro.cluster.machine.Cluster.step` boundaries; a kernel
    that returns ``None`` from ``step_exit`` declares the boundary
    barrier-free (no ``BarrierWait`` telemetry is emitted).
    """

    name = "base"

    def attach(self, nodes: Sequence["SimNode"]) -> None:
        """Wire the kernel into a cluster's nodes (called by Cluster)."""
        for node in nodes:
            node.disk.kernel = self

    def on_io(
        self,
        disk: "SimDisk",
        op: str,
        n_items: int,
        itemsize: int,
        stream: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> float:
        """Charge one block access; returns the recorded service time."""
        return self.on_batch(disk, ((op, itemsize, stream, offset, (n_items,)),))

    def on_batch(
        self, disk: "SimDisk", batch: Sequence["Charge"], rows: "Rows" = None
    ) -> float:
        """Apply ``batch`` to the clocks, the drive state and ``disk.stats``;
        if ``rows`` is given, append each block's bus row to it and, on a
        bus that captures memory, each reservation's, stamped with the
        clock at its place in the batch.  Returns the last block's cost."""
        raise NotImplementedError

    def step_enter(self, nodes: Sequence["SimNode"]) -> None:
        """Called at every step entry, before the step observers."""

    def step_exit(self, nodes: Sequence["SimNode"]) -> Optional[float]:
        """Called at every step exit; a time means a barrier happened."""
        return None

    def sync(self, nodes: Sequence["SimNode"]) -> float:
        """True synchronization point: settle pending work, barrier."""
        raise NotImplementedError

    def node_time(self, node: "SimNode") -> float:
        """The node's time including any not-yet-settled pending work."""
        return node.clock.time

    def reset(self) -> None:
        """Drop pending events and stream state (cluster reset)."""


class LockstepKernel(ExecutionKernel):
    """The original BSP semantics: synchronous I/O, step barriers.

    Timing is bit-identical to the pre-kernel simulator: every access
    is served by :meth:`~repro.pdm.disk.SimDisk.serve_sync` (full service
    time, owning clock advanced immediately); every step is
    barrier-delimited.
    """

    name = "lockstep"
    # benchmarks/perf/trace.py wraps each kernel's ``on_io`` through ``vars(cls)``.
    on_io = ExecutionKernel.on_io

    def on_batch(
        self, disk: "SimDisk", batch: Sequence["Charge"], rows: "Rows" = None
    ) -> float:
        return disk.serve_sync(batch, rows)

    def step_enter(self, nodes: Sequence["SimNode"]) -> None:
        barrier([n.clock for n in nodes])

    def step_exit(self, nodes: Sequence["SimNode"]) -> Optional[float]:
        return barrier([n.clock for n in nodes])

    def sync(self, nodes: Sequence["SimNode"]) -> float:
        return barrier([n.clock for n in nodes])


class EventKernel(ExecutionKernel):
    """Event-queue scheduler: overlap-aware I/O, no step barriers."""

    name = "event"

    def __init__(self) -> None:
        #: Per-drive free time (when the last queued access completes).
        self._disk_free: dict[str, float] = {}
        #: Per-(drive, stream) next sequential block offset.
        self._streams: dict[tuple[str, str], int] = {}
        #: Per-rank high-water mark of write completions queued since the
        #: rank last settled — all a sync needs of its pending writes.
        self._rank_free: dict[int, float] = {}

    # -- I/O ---------------------------------------------------------------

    # benchmarks/perf/trace.py wraps each kernel's ``on_io`` through ``vars(cls)``.
    on_io = ExecutionKernel.on_io

    def on_batch(
        self, disk: "SimDisk", batch: Sequence["Charge"], rows: "Rows" = None
    ) -> float:
        owner = disk.owner
        if owner is None:
            # Standalone drive (no cluster): behave synchronously.
            return disk.serve_sync(batch, rows)
        params, name, streams, stats = disk.params, disk.name, self._streams, disk.stats
        seek_time, bandwidth = params.seek_time, params.bandwidth
        slowdown, parallelism = disk.slowdown, disk.parallelism
        now, free = owner.clock.time, self._disk_free.get(name, 0.0)
        pinned: "Rows" = None  # takes reservation rows: only where memory is captured
        timed: Optional["TelemetryBus"] = None  # records compute rows
        if rows is not None:
            bus = disk.bus
            rank, step = owner.rank, bus.current_step if bus is not None else ""
            if bus is not None and bus.captures_memory:
                pinned = rows
            if bus is not None and bus.captures_compute:
                timed = bus
        start = mark = cost = -1.0  # last block's start and cost; latest write's end
        # ``stats`` is booked once, after the batch: the same sums in the same order.
        busy, blocks_read, items_read, blocks_written, items_written = stats.busy_time, 0, 0, 0, 0
        for entry in batch:
            if type(entry) is not tuple:
                if isinstance(entry, float):  # the owner's compute, in place
                    owner.ops_charged += entry
                    seconds = entry * owner.cpu.seconds_per_op / owner.speed
                    now += seconds
                    if timed is not None:
                        publish_compute(timed, rows, rank, now, seconds, entry)
                elif pinned is not None:  # a reservation change: its row at ``now``
                    n, in_use, node = entry
                    if node is not owner:  # another node's memory (a salvage): its clock
                        pinned.append(reservation_row(entry, step))
                    elif n >= 0:
                        pinned.append((MemReserve, now, rank, step, n, in_use))
                    else:
                        pinned.append((MemRelease, now, rank, step, -n, in_use))
                continue
            op, itemsize, stream, offset, sizes = entry
            # ``serve_sync``'s cost, the seek amortized over a stream.
            seek = rest = seek_time
            count = len(sizes)
            if stream is not None and offset is not None:
                key = (name, stream)
                if streams.get(key) == offset:
                    seek = 0.0  # continues the stream: transfer term only
                streams[key] = offset + count
                rest = 0.0  # the entry's later blocks continue it
            read = op == "read"
            if read:
                blocks_read += count
                items_read += sum(sizes)
            else:
                blocks_written += count
                items_written += sum(sizes)
            for n_items in sizes:
                cost = (seek + n_items * itemsize / bandwidth) * slowdown / parallelism
                seek = rest
                start = now if now > free else free  # drive queue or issue time
                free = start + cost
                busy += cost
                if read:  # the node waits for the data (and queued writes)
                    if free > now:
                        now = free
                elif free > mark:  # write-behind: settled at the next sync
                    mark = free
                if rows is not None:  # ``queued``: the drive-timeline start
                    rows.append((
                        BlockRead if read else BlockWrite, now, rank, step, name,
                        n_items, itemsize, cost, start,
                        "" if stream is None else stream, -1 if offset is None else offset,
                    ))
                    offset = None if offset is None else offset + 1
        owner.clock.time = now
        stats.busy_time = busy
        stats.blocks_read += blocks_read
        stats.items_read += items_read
        stats.blocks_written += blocks_written
        stats.items_written += items_written
        if start >= 0.0:  # a block was charged
            self._disk_free[name] = free
            disk.last_queued = start
            if mark >= 0.0 and mark > self._rank_free.get(owner.rank, 0.0):
                self._rank_free[owner.rank] = mark
        return cost

    # -- synchronization ---------------------------------------------------

    def sync(self, nodes: Sequence["SimNode"]) -> float:
        # Settle: each participant first waits out its own queued writes.
        for node in nodes:
            node.clock.advance_to(self._rank_free.pop(node.rank, 0.0))
        return barrier([n.clock for n in nodes])

    def node_time(self, node: "SimNode") -> float:
        return max(node.clock.time, self._rank_free.get(node.rank, 0.0))

    def reset(self) -> None:
        self._disk_free.clear()
        self._streams.clear()
        self._rank_free.clear()


def make_kernel(kernel: Union[str, ExecutionKernel]) -> ExecutionKernel:
    """Resolve a kernel argument (name or instance) to an instance."""
    if isinstance(kernel, ExecutionKernel):
        return kernel
    if kernel == "event":
        return EventKernel()
    if kernel == "lockstep":
        return LockstepKernel()
    raise ValueError(f"unknown kernel {kernel!r}; have {list(KERNELS)}")
