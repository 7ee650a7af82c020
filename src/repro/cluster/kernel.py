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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.cluster.simclock import barrier

if TYPE_CHECKING:
    from repro.cluster.node import SimNode
    from repro.pdm.disk import SimDisk

#: Registry of kernel names accepted by :func:`make_kernel`.
KERNELS = ("event", "lockstep")


class ExecutionKernel:
    """Scheduling policy for a simulated cluster.

    A kernel receives every charged block I/O (:meth:`on_io`) and every
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

    def on_io(
        self,
        disk: "SimDisk",
        op: str,
        n_items: int,
        itemsize: int,
        stream: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> float:
        return disk.serve_sync(n_items, itemsize)

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

    def on_io(
        self,
        disk: "SimDisk",
        op: str,
        n_items: int,
        itemsize: int,
        stream: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> float:
        owner = disk.owner
        if owner is None:
            # Standalone drive (no cluster): behave synchronously.
            return disk.serve_sync(n_items, itemsize)
        # Service time: ``serve_sync``'s expression with the seek amortized
        # over a sequential stream (readahead / write-behind).
        params = disk.params
        seek = params.seek_time
        if stream is not None and offset is not None:
            key = (disk.name, stream)
            if self._streams.get(key) == offset:
                seek = 0.0  # continues the stream: transfer term only
            self._streams[key] = offset + 1
        cost = (
            (seek + n_items * itemsize / params.bandwidth)
            * disk.slowdown
            / disk.parallelism
        )
        clock = owner.clock
        start = self._disk_free.get(disk.name, 0.0)  # the drive's queue ...
        if clock.time > start:
            start = clock.time  # ... or the issue time, whichever is later
        end = start + cost
        self._disk_free[disk.name] = end
        # Expose the drive-timeline busy interval [start, end] to the
        # telemetry bus: the disk publishes it as the event's ``queued``.
        disk.last_queued = start
        if op == "read":
            # The node blocks until the data is in memory — which also
            # waits out every queued write-behind on the same drive.
            if end > clock.time:
                clock.time = end
        else:
            # Write-behind: the drive is busy until ``end`` but the node
            # continues; completion is settled at the next sync point.
            rank = owner.rank
            if end > self._rank_free.get(rank, 0.0):
                self._rank_free[rank] = end
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
