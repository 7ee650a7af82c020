"""Redistribution of the partitions (paper step 4).

Sublist j of every node travels to node j.  The schedule is the p-1
round rotation of :meth:`~repro.cluster.mpi.SimComm.alltoallv`, but
streaming: each message chunk is read from the sender's disk,
transferred (charging the link and both NIC channels) and written to a
per-sender run file on the receiver's disk, so the per-node I/O stays
within the paper's ``2 * l_i / B`` bound (read on the sender side +
write on the receiver side).  A message's reads are one batch entry
where the sender's file and bus allow a plan (:func:`take_chunk`), its
whole-block writes one batch always (``BlockWriter.write``); a stream's
final partial block is a batch of its own.  :func:`stream_run` moves
every run — here, in the degraded-mode salvage and in the output
gather — and is where the paper's message rule is applied.

The result at node j is a list of p sorted run files — one per sender,
including its own partition — ready for the step-5 merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.machine import NodeSet
from repro.cluster.network import Network
from repro.cluster.node import SimNode
from repro.extsort.multiway import RunCursor, RunRef
from repro.pdm.blockfile import BlockFile, BlockWriter


@dataclass
class RedistributionReport:
    """Counters from one redistribution phase."""

    messages: int = 0
    bytes_moved: int = 0
    items_moved: int = 0
    max_message_items: int = 0


def message_items_for(
    message_items: int, B: int, *memory_capacities: int | None
) -> int:
    """Clamp the configured message size to the paper's rules.

    Messages of at least one block are rounded down to a multiple of B
    (step 4: "the size is also a multiple of the block size B"); smaller
    requests are kept as-is — the paper's in-text packet-size experiment
    sweeps down to 8-integer messages, far below a block.  Either way the
    message is capped so it fits, alongside a working block, in each of
    the given memories (``None`` = unbounded) — the sender's and the
    receiver's.
    """
    if message_items < 1:
        raise ValueError(f"message_items must be >= 1, got {message_items}")
    size = (message_items // B) * B if message_items >= B else message_items
    caps = [c for c in memory_capacities if c is not None]
    if caps:
        cap = max(1, min(caps) // 2)
        if cap >= B:
            cap = (cap // B) * B
        size = min(size, cap)
    return size


def redistribute(
    cluster: NodeSet,
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
    # Round r: node i sends to (i + r) mod p; round 0 is every node's own
    # partition, a disk-to-disk copy.  Every receiver has exactly one
    # sender per round, so each receiving file is written start-to-finish
    # by a single writer — one receive buffer in memory at a time,
    # independent of p.
    for r in range(p):
        for i in range(p):
            j = (i + r) % p
            src, dst, ref = cluster.nodes[i], cluster.nodes[j], partitions[i][j]
            f = dst.disk.new_file(
                ref.file.B, ref.file.dtype, name=dst.disk.next_file_name(f"recv_from{i}_")
            )
            received[j][i] = f
            with BlockWriter(f, dst.mem) as writer:
                stream_run(
                    cluster.network, src, dst, RunCursor(ref, src.mem), writer,
                    message_items, report,
                )
    return received, report


def take_chunk(cur: RunCursor, size: int) -> np.ndarray:
    """Gather up to ``size`` items from the cursor (spanning blocks).

    Planned where it can be (:meth:`RunCursor.take_planned`: the
    message's reads as one batch entry); otherwise this loop fills one
    preallocated message buffer instead of accumulating a list of
    per-block slices and concatenating — a single allocation per message
    regardless of how many blocks it spans.
    """
    planned = cur.take_planned(size)
    if planned is not None:
        return planned
    out = np.empty(size, dtype=cur.run.file.dtype)  # repro: noqa REP006(message-sized chunk; receiver reserves before writing it)
    got = 0
    while got < size and not cur.exhausted:
        part = cur.take_upto(size - got)
        out[got : got + part.size] = part
        got += part.size
    return out[:got]


def stream_run(
    network: Network,
    src: SimNode,
    dst: SimNode,
    cur: RunCursor,
    writer: BlockWriter,
    message_items: int,
    report: Optional[RedistributionReport] = None,
) -> None:
    """Move what is left of ``cur`` from ``src`` into ``writer`` on ``dst``.

    Step 4's message rule, stated once for every run that moves between
    nodes: each message is a multiple of B (unless configured below one
    block) that fits both in the memory the cursor reads into and in the
    receiving writer's memory (:func:`message_items_for`).  A message is
    charged to the network only when it crosses nodes; the receiver
    reserves it before writing.  The cursor is dropped on return, normal
    or not.
    """
    size = message_items_for(
        message_items, cur.run.file.B, cur.mem.capacity, writer.mem.capacity
    )
    itemsize = cur.run.file.itemsize
    remote = src is not dst
    try:
        while not cur.exhausted:
            chunk = take_chunk(cur, size)
            nbytes = chunk.size * itemsize
            if remote:
                network.transfer(src, dst, nbytes, item_bytes=itemsize)
            with writer.mem.reserve(chunk.size):
                writer.write(chunk)
            if report is not None:
                if remote:
                    report.messages += 1
                    report.bytes_moved += nbytes
                report.items_moved += chunk.size
                report.max_message_items = max(report.max_message_items, chunk.size)
    finally:
        cur.drop()
