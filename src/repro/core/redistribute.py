"""Redistribution of the partitions (paper step 4).

Sublist j of every node travels to node j, in messages that are (a) a
multiple of the block size B and (b) small enough to fit in both the
local and the remote memory — the paper's two message-formation rules.
The schedule is the p-1 round rotation of
:meth:`~repro.cluster.mpi.SimComm.alltoallv`, but streaming: each
message chunk is read from the sender's disk, transferred (charging the
link and both NIC channels) and written to a per-sender run file on the
receiver's disk, so the per-node I/O stays within the paper's
``2 * l_i / B`` bound (read on the sender side + write on the receiver
side).

The result at node j is a list of p sorted run files — one per sender,
including its own partition — ready for the step-5 merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import Cluster
from repro.extsort.multiway import RunCursor, RunRef
from repro.pdm.blockfile import BlockFile, BlockWriter, close_all


@dataclass
class RedistributionReport:
    """Counters from one redistribution phase."""

    messages: int = 0
    bytes_moved: int = 0
    items_moved: int = 0
    max_message_items: int = 0


def message_items_for(
    message_items: int, B: int, memory_capacity: int | None
) -> int:
    """Clamp the configured message size to the paper's rules.

    Messages of at least one block are rounded down to a multiple of B
    (step 4: "the size is also a multiple of the block size B"); smaller
    requests are kept as-is — the paper's in-text packet-size experiment
    sweeps down to 8-integer messages, far below a block.  Either way the
    message is capped so it fits in memory on both ends alongside a
    working block.
    """
    if message_items < 1:
        raise ValueError(f"message_items must be >= 1, got {message_items}")
    size = (message_items // B) * B if message_items >= B else message_items
    if memory_capacity is not None:
        cap = max(1, memory_capacity // 2)
        if cap >= B:
            cap = (cap // B) * B
        size = min(size, cap)
    return size


def redistribute(
    cluster: Cluster,
    partitions: list[list[RunRef]],
    message_items: int,
) -> tuple[list[list[BlockFile]], RedistributionReport]:
    """Run the all-to-all of partitions; returns per-node received runs.

    ``partitions[i][j]`` is node i's sublist destined to node j (a range
    of node i's sorted file, materialized or not).  Returns
    ``received[j][i]`` = the run file on node j's disk holding what node
    i sent (``received[j][j]`` is node j's own partition, moved locally
    without network cost).
    """
    p = cluster.p
    if len(partitions) != p or any(len(row) != p for row in partitions):
        raise ValueError(f"partitions must be a {p}x{p} structure")
    report = RedistributionReport()
    received: list[list[BlockFile]] = [[None] * p for _ in range(p)]  # type: ignore[list-item]

    def recv_file(j: int, i: int) -> BlockFile:
        node_j = cluster.nodes[j]
        f = node_j.disk.new_file(
            partitions[i][j].file.B,
            partitions[i][j].file.dtype,
            name=node_j.disk.next_file_name(f"recv_from{i}_"),
        )
        received[j][i] = f
        return f

    # The rotation schedule gives every receiver exactly one sender per
    # round, so each receiving file is written start-to-finish within its
    # round by a single writer — one receive buffer in memory at a time,
    # independent of p.
    #
    # Round 0: local partitions (no network, charged as a disk copy).
    for i in range(p):
        writer = BlockWriter(recv_file(i, i), cluster.nodes[i].mem)
        try:
            _stream_local(cluster, i, partitions[i][i], writer, message_items, report)
        finally:
            writer.close()
    # Rounds 1..p-1: node i sends to (i + r) mod p.
    for r in range(1, p):
        round_writers = []
        try:
            for i in range(p):
                j = (i + r) % p
                writer = BlockWriter(recv_file(j, i), cluster.nodes[j].mem)
                round_writers.append(writer)
                try:
                    _stream_remote(
                        cluster, i, j, partitions[i][j], writer, message_items, report
                    )
                finally:
                    writer.close()
                    round_writers.pop()
        finally:
            close_all(round_writers)
    return received, report


def _chunk_size(cluster: Cluster, i: int, j: int, message_items: int, B: int) -> int:
    cap_i = cluster.nodes[i].mem.capacity
    cap_j = cluster.nodes[j].mem.capacity
    cap = None
    if cap_i is not None or cap_j is not None:
        cap = min(c for c in (cap_i, cap_j) if c is not None)
    return message_items_for(message_items, B, cap)


def take_chunk(cur: RunCursor, size: int) -> np.ndarray:
    """Gather up to ``size`` items from the cursor (spanning blocks).

    Fills one preallocated message buffer instead of accumulating a list
    of per-block slices and concatenating — a single allocation per
    message regardless of how many blocks it spans.
    """
    out = np.empty(size, dtype=cur.run.file.dtype)  # repro: noqa REP006(message-sized chunk; receiver reserves before writing it)
    got = 0
    while got < size and not cur.exhausted:
        part = cur.take_upto(size - got)
        out[got : got + part.size] = part
        got += part.size
    return out[:got]


def _stream_local(
    cluster: Cluster,
    i: int,
    ref: RunRef,
    writer: BlockWriter,
    message_items: int,
    report: RedistributionReport,
) -> None:
    """Node i's own partition: disk-to-disk copy on the same host."""
    node = cluster.nodes[i]
    size = _chunk_size(cluster, i, i, message_items, ref.file.B)
    cur = RunCursor(ref, node.mem)
    try:
        while not cur.exhausted:
            chunk = take_chunk(cur, size)
            with node.mem.reserve(chunk.size):
                writer.write(chunk)
            report.items_moved += chunk.size
            report.max_message_items = max(report.max_message_items, chunk.size)
    finally:
        cur.drop()


def _stream_remote(
    cluster: Cluster,
    i: int,
    j: int,
    ref: RunRef,
    writer: BlockWriter,
    message_items: int,
    report: RedistributionReport,
) -> None:
    src, dst = cluster.nodes[i], cluster.nodes[j]
    size = _chunk_size(cluster, i, j, message_items, ref.file.B)
    cur = RunCursor(ref, src.mem)
    itemsize = ref.file.itemsize
    try:
        while not cur.exhausted:
            chunk = take_chunk(cur, size)
            if chunk.size == 0:
                continue
            cluster.network.transfer(src, dst, chunk.size * itemsize, item_bytes=itemsize)
            with dst.mem.reserve(chunk.size):
                writer.write(chunk)
            report.messages += 1
            report.bytes_moved += chunk.size * itemsize
            report.items_moved += chunk.size
            report.max_message_items = max(report.max_message_items, chunk.size)
    finally:
        cur.drop()
