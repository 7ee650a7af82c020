"""Per-access charging, as it was before the kernels took batches.

Each function below is the body of the method it is named after, copied
verbatim with ``self`` renamed: ``EventKernel.on_io``,
``LockstepKernel.on_io`` (which served through ``SimDisk.serve_sync``),
``SimDisk.charge_read``/``charge_write`` (one function, ``op`` a
parameter), ``SimDisk._publish``, ``SimNode.compute`` (whose ``Compute``
row, coalesced into a same-node, same-step row at the stream's tail, a
batch's CPU entry must write at capture ``full``) and
``MemoryManager._publish`` (the row of one acquire or release).  They run
on the live objects and touch the same state (``_streams``,
``_disk_free``, ``_rank_free``, ``last_queued``, the clock, ``IOStats``,
the bus and its subscribers), so ``tests/test_kernel_batch.py`` can apply
a drawn access sequence through them access by access (:func:`apply`)
and as one batch, and compare every field.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.sanitizers import active_sanitizer
from repro.cluster.kernel import EventKernel


def event_on_io(
    kernel: EventKernel,
    disk,
    op: str,
    n_items: int,
    itemsize: int,
    stream: Optional[str] = None,
    offset: Optional[int] = None,
) -> float:
    owner = disk.owner
    if owner is None:
        # Standalone drive (no cluster): behave synchronously.
        return serve_sync(disk, n_items, itemsize)
    # Service time: ``serve_sync``'s expression with the seek amortized
    # over a sequential stream (readahead / write-behind).
    params = disk.params
    seek = params.seek_time
    if stream is not None and offset is not None:
        key = (disk.name, stream)
        if kernel._streams.get(key) == offset:
            seek = 0.0  # continues the stream: transfer term only
        kernel._streams[key] = offset + 1
    cost = (
        (seek + n_items * itemsize / params.bandwidth)
        * disk.slowdown
        / disk.parallelism
    )
    clock = owner.clock
    start = kernel._disk_free.get(disk.name, 0.0)  # the drive's queue ...
    if clock.time > start:
        start = clock.time  # ... or the issue time, whichever is later
    end = start + cost
    kernel._disk_free[disk.name] = end
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
        if end > kernel._rank_free.get(rank, 0.0):
            kernel._rank_free[rank] = end
    return cost


def on_io(kernel, disk, op, n_items, itemsize, stream=None, offset=None) -> float:
    """The kernel's per-access entry (``LockstepKernel.on_io`` served
    every access synchronously)."""
    if isinstance(kernel, EventKernel):
        return event_on_io(kernel, disk, op, n_items, itemsize, stream, offset)
    return serve_sync(disk, n_items, itemsize)


def charge(
    disk,
    op: str,
    n_items: int,
    itemsize: int,
    stream: Optional[str] = None,
    offset: Optional[int] = None,
) -> float:
    san = active_sanitizer()
    if san is not None:
        san.on_disk_charge(disk, op, n_items, itemsize)
    if disk.fault_hook is not None:
        disk.fault_hook(disk, op, n_items, itemsize)
    disk.last_queued = -1.0  # synchronous unless the kernel says otherwise
    if disk.kernel is not None:
        cost = on_io(disk.kernel, disk, op, n_items, itemsize, stream, offset)
    else:
        cost = serve_sync(disk, n_items, itemsize)
    stats = disk.stats
    if op == "read":
        stats.blocks_read += 1
        stats.items_read += n_items
    else:
        stats.blocks_written += 1
        stats.items_written += n_items
    stats.busy_time += cost
    bus = disk.bus
    if bus is not None and bus.captures_io:
        _publish(disk, bus, op, n_items, itemsize, cost, stream, offset)
    return cost


def serve_sync(disk, n_items: int, itemsize: int) -> float:
    cost = (
        disk.params.access_cost(n_items * itemsize)
        * disk.slowdown
        / disk.parallelism
    )
    if disk.observer is not None:
        disk.observer(cost)
    return cost


def _publish(disk, bus, op, n_items, itemsize, cost, stream, offset) -> None:
    owner = disk.owner
    t = owner.clock.time if owner is not None else disk.stats.busy_time
    queued = disk.last_queued if disk.last_queued >= 0.0 else t - cost
    bus.record_block_io(
        op,
        disk=disk.name,
        node=owner.rank if owner is not None else -1,
        t=t,
        n_items=n_items,
        itemsize=itemsize,
        cost=cost,
        queued=queued,
        stream=stream if stream is not None else "",
        offset=offset if offset is not None else -1,
    )


def compute(node, ops: float) -> None:
    if ops < 0:
        raise ValueError(f"ops must be >= 0, got {ops}")
    node.ops_charged += ops
    seconds = ops * node.cpu.seconds_per_op / node.speed
    node.clock.advance(seconds)
    if node.bus is not None:
        node.bus.record_compute(
            node=node.rank, t=node.clock.time, seconds=seconds, ops=ops
        )


def mem_publish(owner, bus, op: str, n_items: int, in_use: int) -> None:
    """``MemoryManager._publish`` of a manager owned by ``owner`` (or none)
    on ``bus``, ``in_use`` its usage after the change; the level check is
    ``record_mem``'s."""
    bus.record_mem(
        op,
        node=owner.rank if owner is not None else -1,
        t=owner.clock.time if owner is not None else 0.0,
        n_items=n_items,
        in_use=in_use,
    )


def apply(node, disk, bus, seq) -> None:
    """``seq`` access by access, as its callers charged it before batches:
    a float of CPU ops through :func:`compute`, a reservation change
    ``[n, in_use, owner]`` through :func:`mem_publish` and a block
    ``(op, n_items, itemsize, stream, offset)`` through :func:`charge`."""
    for a in seq:
        if isinstance(a, float):
            compute(node, a)
        elif isinstance(a, list):
            n, in_use, owner = a
            mem_publish(owner, bus, "reserve" if n >= 0 else "release", abs(n), in_use)
        else:
            charge(disk, *a)
